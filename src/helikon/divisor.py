"""Residues, divisor audits, and fixed-point classification.

Zeros and poles are located by the argument principle on a jittered grid of
parallelogram cells covering the fundamental domain.  The winding integrals
of a whole grid come from one quadrature run over its distinct cell sides,
and those of the 4 x 4 subcells of every hot cell from one more.  They only
need to distinguish integers, so they run at loose quadrature tolerance.
The hot subcells then take the argument-principle moments
m_j = (1/2 pi i) * integral of u^j f'/f du, j = 0, 1, 2, on a circle around
each, all circles in one run of the periodic trapezoidal rule: a subcell of
winding k holds the point m1 / k, and m2 / k - (m1 / k)^2 vanishes unless
it holds several distinct points (Delves & Lyness, Math. Comp. 21, 1967;
Kravanja & Van Barel, LNM 1727, 2000).
"""

import cmath

import numpy as np

from .errors import (
    AbelViolation,
    AuditFailed,
    ClusteredDivisor,
    DomainViolation,
    NoConvergence,
    NonFiniteSample,
    PoleAt,
    ZeroOnContour,
)
from .expr import FormExpr, differentiate, eval_expr, pullback
from .kernels import reduce_to_cell
from .paths import Lines, circle, integrate_path, integrate_paths
from .records import field, record

TWO_PI_I = 2j * cmath.pi
# a contour that meets (or nearly meets) a zero or pole of f raises these;
# every integrand runs on ndarrays, where a division by zero gives inf
CONTOUR_ERRORS = (NonFiniteSample, NoConvergence, PoleAt, DomainViolation)
# the last step's circles: CIRCLE_SCALE times each hot cell's circumradius,
# integrated at MOMENT_TOL
CIRCLE_SCALE = 1.02
MOMENT_TOL = 1e-10
# largest |m2/k - (m1/k)^2| taken for one point of order k.  Two simple
# points d apart spread d^2 / 4, so points more than 6.3e-5 apart are told
# apart; a point whose moments are off by delta spreads about 2 |u| delta,
# and the kernels' floor gives 2.7e-12 on the audits
MAX_SPREAD = 1e-9
# locate_divisor moves the grid's base point this many times before it
# gives up on a grid whose cell sides keep meeting a zero or pole
JITTER_TRIES = 5
# the fixed-point classifier's residues are taken on circles of
# CLASSIFY_RADIUS, and a residue above CLASSIFY_RES_TOL is a simple pole
CLASSIFY_RADIUS = 0.05
CLASSIFY_RES_TOL = 1e-8


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


@record
class Divisor:
    entries: list = field(default_factory=list)  # (point, signed order)

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


def locate_divisor(obj, grid=8):
    """Locate zeros and poles of a torus Expr/FormExpr in the fundamental cell.

    Raises ZeroOnContour when every jittered grid fails, and
    ClusteredDivisor when distinct points share a subcell of a hot cell
    (1/(4 grid) of a period wide); a larger grid separates them.

    The grid sees each cell's net winding only, so a zero and a pole in
    one grid cell cancel and are missed without an error.  At tau = i,
    sigma(u-0.2)*sigma(u+0.3)/(sigma(u+0.2)*sigma(u-0.3)) has its zeros and
    poles 0.1 apart: grid=8 finds nothing, and grid=16 all four points.
    """
    f = _coefficient(obj)
    lat = f.domain.lattice
    if lat is None:
        raise AuditFailed("divisor location requires a torus domain")
    fp = differentiate(f)
    tau = lat.tau

    last_exc = None
    for attempt in range(JITTER_TRIES):
        base = (0.05371 + 0.03813 * attempt) + (0.04629 + 0.02971 * attempt) * tau
        try:
            return _locate_with_base(f, fp, lat, base, grid)
        except ZeroOnContour as exc:
            last_exc = exc
    raise ZeroOnContour(
        f"grid jitter exhausted after {JITTER_TRIES} tries: {last_exc}"
    )


def _cell_integrals(integrand, base, e1, e2, cells, tol):
    """Contour integral of integrand around every cell (s0, t0, s1, t1) of
    the grid base + s e1 + t e2, counterclockwise; ZeroOnContour if the
    quadrature fails on any side.

    Cells share sides, so one quadrature run integrates over each distinct
    side once, with s or t increasing, at tol / 4 (the per-side tolerance
    of a four-sided contour at tol), and each cell sums its sides with
    signs: bottom + right - top - left.  A vector integrand gives one row
    of forms per cell.
    """
    s0, t0, s1, t1 = np.array(cells, dtype=float).T
    # every cell's bottom, right, top and left side as (s, t) -> (s', t')
    sides = np.stack(
        [s0, t0, s1, t0, s1, t0, s1, t1, s0, t1, s1, t1, s0, t0, s0, t1],
        axis=1,
    ).reshape(-1, 4)
    distinct, which = np.unique(sides, axis=0, return_inverse=True)
    sa, ta, sb, tb = distinct.T
    try:
        vals = integrate_paths(
            integrand,
            Lines(base + sa * e1 + ta * e2, base + sb * e1 + tb * e2),
            tol / 4,
        )
    except CONTOUR_ERRORS as exc:
        raise ZeroOnContour(str(exc)) from exc
    bottom, right, top, left = np.moveaxis(vals[which.reshape(-1, 4)], 1, 0)
    return bottom + right - top - left


def _cell_windings(f, fp, base, e1, e2, cells, tol=2e-3):
    """Net number of zeros minus poles of f inside every cell of the grid
    (see _cell_integrals); ZeroOnContour if any cell fails."""

    def integrand(z):
        den, num = eval_expr((f, fp), z)
        return num / den

    w = (_cell_integrals(integrand, base, e1, e2, cells, tol) / TWO_PI_I).real
    k = np.round(w)
    off = np.abs(w - k) > 0.2
    if np.count_nonzero(off):
        raise ZeroOnContour(f"non-integer winding {w[off][0]:.3f}")
    return k.astype(int).tolist()


def _moment_points(f, fp, base, e1, e2, hot):
    """The point m1 / k of every hot cell (s0, t0, s1, t1, k), from the
    argument-principle moments m_j = (1/2 pi i) * contour integral of
    u^j f'/f du, j = 0, 1, 2.

    Every cell's circle (centred on it, CIRCLE_SCALE times its circumradius)
    goes into one quadrature run, where full circles take the periodic
    trapezoidal rule.  A circle whose m0 does not round to k, or whose
    spread |m2/k - (m1/k)^2| is above MAX_SPREAD, may hold a neighbour's
    point as well; such a cell takes its moments from its own four sides
    instead, all of them in one more run.  If its sides still disagree,
    this raises ZeroOnContour (m0) or ClusteredDivisor (the spread).
    """
    s0, t0, s1, t1, k = np.array(hot, dtype=float).T
    center = base + 0.5 * (s0 + s1) * e1 + 0.5 * (t0 + t1) * e2
    ds, dt = (s1 - s0) * e1, (t1 - t0) * e2
    radius = CIRCLE_SCALE * 0.5 * np.maximum(abs(ds + dt), abs(ds - dt))

    def integrand(z):
        num, den = eval_expr((fp, f), z)
        d = num / den
        return np.stack([d, z * d, z * z * d])

    def checks(m):
        miscount = np.round(m[:, 0].real) != k
        spread = np.abs(m[:, 2] / k - (m[:, 1] / k) ** 2)
        return miscount, spread

    try:
        m = integrate_paths(
            integrand,
            [circle(c, r) for c, r in zip(center.tolist(), radius.tolist())],
            MOMENT_TOL,
        ) / TWO_PI_I
    except CONTOUR_ERRORS as exc:
        raise ZeroOnContour(str(exc)) from exc
    miscount, spread = checks(m)
    redo = miscount | (spread > MAX_SPREAD)
    if np.count_nonzero(redo):
        cells = np.stack([s0, t0, s1, t1], axis=1)[redo]
        m[redo] = _cell_integrals(
            integrand, base, e1, e2, cells, MOMENT_TOL
        ) / TWO_PI_I
        miscount, spread = checks(m)
        if np.count_nonzero(miscount):
            raise ZeroOnContour("moment count disagrees with the winding")
        if np.count_nonzero(spread > MAX_SPREAD):
            raise ClusteredDivisor(
                f"distinct points share a cell 1/{round(1 / (s1 - s0)[0])}"
                f" of a period wide (spread {spread.max():.3g});"
                " locate on a finer grid"
            )
    return m[:, 1] / k


def _locate_with_base(f, fp, lat, base, grid):
    tau = lat.tau
    e1, e2 = 1.0 + 0.0j, tau
    cells = [
        (ix / grid, iy / grid, (ix + 1) / grid, (iy + 1) / grid)
        for iy in range(grid)
        for ix in range(grid)
    ]
    windings = _cell_windings(f, fp, base, e1, e2, cells)
    hot = [(*c, k) for c, k in zip(cells, windings) if k != 0]
    if not hot:
        return Divisor(entries=[])

    # split every hot cell into 4 x 4 subcells, each side halved twice
    subcells = []
    for s0, t0, s1, t1, _ in hot:
        sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
        ss = (s0, 0.5 * (s0 + sm), sm, 0.5 * (sm + s1), s1)
        ts = (t0, 0.5 * (t0 + tm), tm, 0.5 * (tm + t1), t1)
        subcells += [
            (ss[i], ts[j], ss[i + 1], ts[j + 1]) for j in range(4) for i in range(4)
        ]
    windings = _cell_windings(f, fp, base, e1, e2, subcells)
    for i, cell in enumerate(hot):
        if sum(windings[16 * i:16 * i + 16]) != cell[4]:
            raise ZeroOnContour("subdivision lost winding; jittering")
    hot = [(*c, k) for c, k in zip(subcells, windings) if k != 0]

    entries = []
    points = _moment_points(f, fp, base, e1, e2, hot)
    for point, (*_, k) in zip(points.tolist(), hot):
        for i, (p, n) in enumerate(entries):
            if lat.same_point(p, point, 1e-6):
                entries[i] = (p, n + k)
                break
        else:
            entries.append((point, k))
    entries = [(p, n) for p, n in entries if n != 0]
    # rounded well above the location error, so that points equal in exact
    # arithmetic are ordered by the mathematics, not by rounding noise
    entries.sort(key=lambda e: (round(e[0].real, 9), round(e[0].imag, 9)))
    return Divisor(entries=entries)


def divisor_audit(w):
    """Divisor of a torus one-form plus the genus-one count verdict.

    Returns (divisor, ok).  A meromorphic one-form on a surface of genus k
    has #Z - #P = 2k - 2, so on the torus (k = 1) ok is True when #Z = #P;
    a False verdict signals data that is not actually elliptic.
    """
    dv = locate_divisor(w)
    return dv, dv.zero_count() == dv.pole_count()


SIMPLE_POLE = "SimplePole"
ZERO_AT = "ZeroAt"
IDENTICALLY_ZERO = "IdenticallyZero"
REGULAR = "Regular"


def classify_fixed_points(w, inv, points):
    """Behaviour of w + I*w at every fixed point of the involution, with
    the residues of w at all the points from one residues run.

    SimplePole iff the residue of w at p (on the circle of CLASSIFY_RADIUS)
    is above CLASSIFY_RES_TOL; IdenticallyZero iff the
    symmetrized form is uniformly tiny on two concentric circles; ZeroAt when
    it vanishes in the limit at p; Regular otherwise.
    """
    points = [complex(p) for p in points]
    sym = w + pullback(w, inv)
    return [
        _classify(sym, p, b)
        for p, b in zip(points, residues(w, points, CLASSIFY_RADIUS))
    ]


def classify_fixed_point(w, inv, p):
    """classify_fixed_points at the one fixed point p."""
    return classify_fixed_points(w, inv, [p])[0]


def _classify(sym, p, b):
    """The case of the symmetrized form sym at p, where w has residue b."""
    if abs(b) > CLASSIFY_RES_TOL:
        return SIMPLE_POLE
    # two circles of 8 points, then two of 6 close in; one evaluation each
    ring = np.exp(2j * np.pi * (np.arange(8) + 0.37) / 8)
    radii = [CLASSIFY_RADIUS, 0.5 * CLASSIFY_RADIUS]
    far = np.abs(eval_expr(sym, p + np.outer(radii, ring)))
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
    return lat.distance(sum(map(complex, zeros)), sum(map(complex, poles)))


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
    _, m, n = reduce_to_cell(d, lat.tau)
    # d = m + n*tau up to numerical fuzz; a = -eta1*d + 2*pi*i*n
    return -lat.eta1 * d + TWO_PI_I * n
