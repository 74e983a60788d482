"""Residues, divisor audits, and fixed-point classification.

Zeros and poles are located by the argument principle on a jittered grid of
parallelogram cells covering the fundamental domain, then polished by
Newton iteration using the exact AST derivative.  The winding integrals of
a whole grid come from one quadrature run over its distinct cell sides, and
those of each refinement round (every subcell of every hot cell) from one
more.  They only need to distinguish integers, so they run at loose
quadrature tolerance.
"""

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AbelViolation,
    AuditFailed,
    DomainViolation,
    NoConvergence,
    NonFiniteSample,
    PoleAt,
    ZeroOnContour,
)
from .expr import FormExpr, differentiate, eval_expr, pullback
from .paths import Lines, circle, integrate_path, integrate_paths

TWO_PI_I = 2j * cmath.pi


def residues(w, points, radius, tol=1e-12):
    """(1/2*pi*i) times the integral of w over the circle of radius about
    each point, from one quadrature run."""
    paths = [circle(complex(p), float(radius)) for p in points]
    vals = integrate_paths(lambda z: eval_expr(w, z), paths, tol)
    return [complex(v) / TWO_PI_I for v in vals]


def residue(w, p, radius, tol=1e-12):
    """(1/2*pi*i) times the integral of w over the circle of radius about p."""
    return residues(w, [p], radius, tol)[0]


def laurent_coefficient(w, p, k, radius=0.05, tol=1e-12):
    """Coefficient of (u - p)^k in the Laurent expansion of w's coefficient."""
    p = complex(p)
    path = circle(p, float(radius))
    val = integrate_path(
        lambda z: eval_expr(w, z) / (z - p) ** (k + 1), path, tol
    )
    return val / TWO_PI_I


@dataclass
class Divisor:
    entries: list = field(default_factory=list)  # (point, signed order)
    genus: int = 1

    def zeros(self):
        return [(p, n) for p, n in self.entries if n > 0]

    def poles(self):
        return [(p, -n) for p, n in self.entries if n < 0]

    def zero_count(self):
        return sum(n for _, n in self.entries if n > 0)

    def pole_count(self):
        return sum(-n for _, n in self.entries if n < 0)


def _coefficient(obj):
    return obj.coeff if isinstance(obj, FormExpr) else obj


def _newton_polish(f, fp, u0, pole, max_iter=60, tol=1e-12):
    """Newton iteration toward a zero (pole=False) or pole (pole=True) of f."""
    u = complex(u0)
    sign = 1.0 if pole else -1.0
    for _ in range(max_iter):
        try:
            fv = eval_expr(f, u)
            fpv = eval_expr(fp, u)
        except (PoleAt, DomainViolation):
            u += 1e-9 * (1 + 1j)
            continue
        if abs(fpv) == 0:
            break
        step = sign * fv / fpv
        # damp wild steps; multiple zeros converge linearly but steadily
        if abs(step) > 0.2:
            step *= 0.2 / abs(step)
        u += step
        if abs(step) < tol:
            break
    return u


def locate_divisor(obj, grid=8, jitter_tries=5, genus=1):
    """Locate zeros and poles of a torus Expr/FormExpr in the fundamental cell.

    Raises ZeroOnContour when every jittered grid fails.
    """
    f = _coefficient(obj)
    lat = f.domain.lattice
    if lat is None:
        raise AuditFailed("divisor location requires a torus domain")
    fp = differentiate(f)
    tau = lat.tau

    last_exc = None
    for attempt in range(jitter_tries):
        base = (0.05371 + 0.03813 * attempt) + (0.04629 + 0.02971 * attempt) * tau
        try:
            return _locate_with_base(f, fp, lat, base, grid, genus)
        except ZeroOnContour as exc:
            last_exc = exc
    raise ZeroOnContour(
        f"grid jitter exhausted after {jitter_tries} tries: {last_exc}"
    )


def _cell_windings(f, fp, base, e1, e2, cells, tol=2e-3):
    """Net number of zeros minus poles of f inside every cell (s0, t0, s1,
    t1) of the grid base + s e1 + t e2; ZeroOnContour if any cell fails.

    Cells share sides, so one quadrature run integrates fp / f once over
    each distinct side, with s or t increasing, at tol / 4 (the per-side
    tolerance of a four-sided contour at tol), and each cell sums its
    sides with signs: bottom + right - top - left.
    """
    s0, t0, s1, t1 = np.array(cells, dtype=float).T
    # every cell's bottom, right, top and left side as (s, t) -> (s', t')
    sides = np.stack(
        [s0, t0, s1, t0, s1, t0, s1, t1, s0, t1, s1, t1, s0, t0, s0, t1],
        axis=1,
    ).reshape(-1, 4)
    distinct, which = np.unique(sides, axis=0, return_inverse=True)
    sa, ta, sb, tb = distinct.T

    def integrand(z):
        den = eval_expr(f, z)
        return eval_expr(fp, z) / den

    try:
        vals = integrate_paths(
            integrand,
            Lines(base + sa * e1 + ta * e2, base + sb * e1 + tb * e2),
            tol / 4,
        )
    except (
        NonFiniteSample,
        NoConvergence,
        PoleAt,
        DomainViolation,
        ZeroDivisionError,
    ) as exc:
        raise ZeroOnContour(str(exc)) from exc
    bottom, right, top, left = vals[which.reshape(-1, 4)].T
    w = ((bottom + right - top - left) / TWO_PI_I).real
    k = np.round(w)
    off = np.abs(w - k) > 0.2
    if np.count_nonzero(off):
        raise ZeroOnContour(f"non-integer winding {w[off][0]:.3f}")
    return k.astype(int).tolist()


def _locate_with_base(f, fp, lat, base, grid, genus):
    tau = lat.tau
    e1, e2 = 1.0 + 0.0j, tau
    cells = [
        (ix / grid, iy / grid, (ix + 1) / grid, (iy + 1) / grid)
        for iy in range(grid)
        for ix in range(grid)
    ]
    windings = _cell_windings(f, fp, base, e1, e2, cells)
    hot = [(*c, k) for c, k in zip(cells, windings) if k != 0]

    # subdivide hot cells to separate nearby points
    for _ in range(2):
        subcells = []
        for s0, t0, s1, t1, _ in hot:
            sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
            subcells += [
                (s0, t0, sm, tm), (sm, t0, s1, tm),
                (s0, tm, sm, t1), (sm, tm, s1, t1),
            ]
        windings = _cell_windings(f, fp, base, e1, e2, subcells)
        for i, cell in enumerate(hot):
            if sum(windings[4 * i:4 * i + 4]) != cell[4]:
                raise ZeroOnContour("subdivision lost winding; jittering")
        hot = [(*c, k) for c, k in zip(subcells, windings) if k != 0]

    entries = []
    for s0, t0, s1, t1, k in hot:
        center = base + 0.5 * (s0 + s1) * e1 + 0.5 * (t0 + t1) * e2
        point = _newton_polish(f, fp, center, pole=k < 0)
        merged = False
        for i, (p, n) in enumerate(entries):
            if lat.same_point(p, point, 1e-6):
                entries[i] = (p, n + k)
                merged = True
                break
        if not merged:
            entries.append((point, k))
    entries = [(p, n) for p, n in entries if n != 0]
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    return Divisor(entries=entries, genus=genus)


def divisor_audit(w, grid=8):
    """Divisor of a torus one-form plus the genus-1 count verdict.

    Returns (divisor, ok).  ok is True when #Z - #P == 2k - 2 (= 0 at k=1);
    a False verdict signals data that is not actually elliptic.
    """
    dv = locate_divisor(w, grid=grid)
    expected = 2 * dv.genus - 2
    ok = (dv.zero_count() - dv.pole_count()) == expected
    return dv, ok


SIMPLE_POLE = "SimplePole"
ZERO_AT = "ZeroAt"
IDENTICALLY_ZERO = "IdenticallyZero"
REGULAR = "Regular"


def classify_fixed_point(w, inv, p, radius=0.05, res_tol=1e-8):
    """Behaviour of w + I*w at a fixed point p of the involution.

    SimplePole iff the residue of w at p is nonzero; IdenticallyZero iff the
    symmetrized form is uniformly tiny on two concentric circles; ZeroAt when
    it vanishes in the limit at p; Regular otherwise.
    """
    p = complex(p)
    sym = w + pullback(w, inv)
    b = residue(w, p, radius)
    if abs(b) > res_tol:
        return SIMPLE_POLE
    # two circles of 8 points, then two of 6 close in; one evaluation each
    ring = np.exp(2j * np.pi * (np.arange(8) + 0.37) / 8)
    far = np.abs(eval_expr(sym, p + np.outer([radius, 0.5 * radius], ring)))
    if far.max() < 1e-9:
        return IDENTICALLY_ZERO
    ring = np.exp(2j * np.pi * np.arange(6) / 6)
    near = np.abs(eval_expr(sym, p + np.outer([1e-3, 1e-4], ring)))
    m_outer, m_inner = near.max(axis=1)
    if m_inner < 0.2 * m_outer:
        return ZERO_AT
    return REGULAR


def abel_defect(zeros, poles, lat):
    """Distance of (sum of zeros - sum of poles) from the lattice."""
    d = sum(complex(z) for z in zeros) - sum(complex(p) for p in poles)
    from .kernels import reduce_to_cell

    d0, _, _ = reduce_to_cell(d, lat.tau)
    return abs(d0)


def check_abel(zeros, poles, lat, tol=1e-8):
    """Raise AbelViolation unless the prescribed divisor is realizable."""
    if len(zeros) != len(poles):
        raise AbelViolation(
            f"{len(zeros)} zeros vs {len(poles)} poles: order sum must vanish"
        )
    defect = abel_defect(zeros, poles, lat)
    if defect > tol:
        raise AbelViolation(
            f"sum(zeros) - sum(poles) is {defect:.3g} away from the lattice"
        )


def exp_factor_coefficient(zeros, poles, lat):
    """Exponential coefficient a making exp(a*u) * prod sigma(u - z_i) /
    prod sigma(u - w_j) single-valued on the torus.

    Requires the Abel condition; the correction is then unique.
    """
    check_abel(zeros, poles, lat)
    d = sum(complex(p) for p in poles) - sum(complex(z) for z in zeros)
    from .kernels import reduce_to_cell

    _, m, n = reduce_to_cell(d, lat.tau)
    # d = m + n*tau up to numerical fuzz; a = -eta1*d + 2*pi*i*n
    return -lat.eta1 * d + TWO_PI_I * n
