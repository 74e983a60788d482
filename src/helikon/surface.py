"""Weierstrass data: immersion, periods, flux, deformation, symmetry checks.

The immersion is F(p) = Re of the path integral of

    ( (1/2)(1/g - g),  (i/2)(1/g + g),  1 ) dh

from the basepoint.  Periods close the surface when, over every basis
cycle, the first integral equals the conjugate of the second and the third
has zero real part; flux is the imaginary part of the same triple.
"""

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .divisor import locate_divisor, residue
from .errors import (
    DomainError,
    NonpositiveLambda,
    NotUnitModulusC,
    PathThroughPole,
    PoleAt,
    SampleAtPole,
)
from .expr import (
    Const,
    Expr,
    FormExpr,
    eval_expr,
    log_derivative,
    mul,
    pullback,
)
from .paths import Arc, Line, PathSpec, integrate_path, polyline


@dataclass(frozen=True)
class WeierstrassData:
    g: Expr
    dh: FormExpr
    basepoint: complex
    label: str = ""
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "basepoint", complex(self.basepoint))

    @property
    def domain(self):
        return self.g.domain

    @cached_property
    def period_forms(self):
        """Coefficients of the period forms (g dh, dh/g, dh).

        The Lopez-Ros deformation g -> lam*g scales them by (lam, 1/lam, 1).
        """
        g, h = self.g, self.dh.coeff
        return (g * h, g.reciprocal() * h, h)

    def log_gauss_form(self):
        """dg/g as a one-form."""
        return log_derivative(self.g)


@dataclass
class CycleBasis:
    cycles: list  # of PathSpec; closed literally or modulo the lattice
    labels: list
    lattice: object = None

    def __post_init__(self):
        if len(self.cycles) != len(self.labels):
            raise ValueError("cycles and labels must align")
        for c in self.cycles:
            if c.closed:
                continue
            # torus generator cycles close only modulo the lattice
            if self.lattice is not None and self.lattice.same_point(
                c.first, c.last, 1e-10
            ):
                continue
            raise ValueError(
                "basis cycles must be closed (mod the lattice on a torus)"
            )

    def items(self):
        return list(zip(self.labels, self.cycles))


@dataclass
class CyclePeriods:
    label: str
    p_plus: complex
    p_minus: complex
    p_three: complex

    @property
    def r1(self):
        return abs(self.p_plus - self.p_minus.conjugate())

    @property
    def r2(self):
        return abs(self.p_three.real)


@dataclass
class PeriodReport:
    entries: list
    tol: float

    @property
    def max_residual(self):
        if not self.entries:
            return 0.0
        return max(max(e.r1, e.r2) for e in self.entries)

    @property
    def closes(self):
        return self.max_residual < self.tol


@dataclass
class FluxVector:
    components: tuple  # three reals

    def horizontal_magnitude(self):
        f1, f2, _ = self.components
        return math.hypot(f1, f2)

    def __iter__(self):
        return iter(self.components)


def integrate_form(coeff_expr, path, tol):
    """Integral of the one-form coeff_expr du along path."""
    try:
        return integrate_path(lambda z: eval_expr(coeff_expr, z), path, tol)
    except PoleAt as exc:
        raise PathThroughPole(str(exc)) from exc


def period_triple(data, path, tol=1e-10):
    """Integrals (P+, P-, P3) of (g dh, dh/g, dh) along path."""
    return tuple(integrate_form(c, path, tol) for c in data.period_forms)


def recombine(p_plus, p_minus, p_three):
    """(1/2 (P- - P+), (i/2)(P- + P+), P3) from a period triple.

    Its real part is the immersion increment along the path; over a closed
    cycle its imaginary part is the flux.
    """
    return (0.5 * (p_minus - p_plus), 0.5j * (p_minus + p_plus), p_three)


def immerse(data, p, route=None, tol=1e-10):
    """Immersed position of p in R^3, integrating along route from basepoint."""
    if route is None:
        route = straight_route(data, p)
    if abs(route.first - data.basepoint) > 1e-9:
        raise ValueError("route must start at the basepoint")
    if abs(route.last - complex(p)) > 1e-9:
        raise ValueError("route must end at p")
    vals = recombine(*period_triple(data, route, tol))
    return np.array([v.real for v in vals])


def gauss_normal(data, p):
    """Unit normal as the inverse stereographic image of g(p)."""
    try:
        gv = eval_expr(data.g, p)
    except PoleAt:
        return np.array([0.0, 0.0, 1.0])
    # |g| > 1e8 is the north pole (|g|^2 > 1e16); tested before squaring,
    # which overflows for |g| above about 1.3e154; nan fails it too
    if not abs(gv) <= 1e8:
        return np.array([0.0, 0.0, 1.0])
    m2 = abs(gv) ** 2
    return np.array([2.0 * gv.real, 2.0 * gv.imag, m2 - 1.0]) / (m2 + 1.0)


def conformal_factor(data, p):
    """Pointwise conformal metric factor (|g| + 1/|g|) |dh| / 2."""
    h = abs(eval_expr(data.dh.coeff, p))
    try:
        m = abs(eval_expr(data.g, p))
    except PoleAt:
        return math.inf
    if m == 0:
        return math.inf if h > 0 else 0.0
    return 0.5 * (m + 1.0 / m) * h


def period_report(data, basis, tol=1e-10):
    """All three period integrals per basis cycle plus closure residuals."""
    entries = [
        CyclePeriods(label, *period_triple(data, cyc, tol))
        for label, cyc in basis.items()
    ]
    return PeriodReport(entries=entries, tol=tol)


def flux(data, cycle, tol=1e-10):
    """Flux vector of one closed cycle: Im of the three period integrals."""
    vals = recombine(*period_triple(data, cycle, tol))
    return FluxVector(tuple(v.imag for v in vals))


@dataclass
class VerticalFluxReport:
    vertical: bool
    vacuous: bool
    horizontal_magnitudes: dict


def is_vertical_flux(data, basis, tol=1e-9):
    """True iff every basis cycle has vanishing horizontal flux."""
    mags = {}
    for label, cyc in basis.items():
        mags[label] = flux(data, cyc).horizontal_magnitude()
    vacuous = not mags
    vertical = all(m < tol for m in mags.values())
    return VerticalFluxReport(vertical, vacuous, mags)


def lopez_ros(data, lam):
    """Deform (g, dh) to (lam * g, dh); closure is preserved under vertical flux."""
    lam = float(lam)
    if lam <= 0:
        raise NonpositiveLambda(f"lambda = {lam}")
    if lam == 1.0:
        return data
    g = Expr(mul(Const(complex(lam)), data.g.node), data.g.domain)
    label = f"{data.label}@lambda={lam:g}" if data.label else f"lambda={lam:g}"
    return replace(data, g=g, label=label)


def _generic_samples(domain, n, seed=20240817):
    """Deterministic generic points inside the fundamental cell / unit box."""
    rng = np.random.default_rng(seed)
    lat = domain.lattice
    out = []
    while len(out) < n:
        s, t = rng.uniform(0.08, 0.92, size=2)
        if lat is None:
            u = complex(2.4 * s - 1.2, 1.6 * t - 0.8)
        else:
            u = s + t * lat.tau
        ok = all(not domain.same_point(u, p, 5e-2) for p in domain.punctures)
        if ok:
            out.append(u)
    return out


def _sampled_form_deviation(w, inv, samples):
    sym = w + pullback(w, inv)
    dev = 0.0
    for u in samples:
        dev = max(dev, abs(eval_expr(sym.coeff, u)))
    return dev


@dataclass
class InvolutionReport:
    dh_odd: bool
    dgg_odd: bool
    C: complex
    max_dev: float
    dh_dev: float
    dgg_dev: float
    c_dev: float


def involution_report(data, inv, tol=1e-8, n_samples=20):
    """Check I*dh = -dh, I*(dg/g) = -dg/g, and g(I(p)) g(p) = g(p0)^2."""
    domain = data.domain
    for p in domain.punctures:
        image = inv.apply(p)
        if not any(domain.same_point(image, q, 1e-8) for q in domain.punctures):
            raise DomainError(
                f"involution does not preserve punctures: I({p}) = {image}"
            )
    dgg = data.log_gauss_form()
    samples = []
    attempts = 0
    seed = 20240817
    while len(samples) < n_samples:
        cands = _generic_samples(domain, n_samples - len(samples), seed + attempts)
        for u in cands:
            try:
                eval_expr(data.g, u)
                eval_expr(data.g, inv.apply(u))
                eval_expr(dgg.coeff, u)
                eval_expr(data.dh.coeff, u)
                samples.append(u)
            except PoleAt:
                continue
        attempts += 1
        if attempts > 10:
            raise SampleAtPole("could not find pole-free generic samples")
    dh_dev = _sampled_form_deviation(data.dh, inv, samples)
    dgg_dev = _sampled_form_deviation(dgg, inv, samples)
    C = eval_expr(data.g, inv.p0) ** 2
    c_dev = max(
        abs(eval_expr(data.g, inv.apply(u)) * eval_expr(data.g, u) - C)
        for u in samples
    )
    return InvolutionReport(
        dh_odd=dh_dev < tol,
        dgg_odd=dgg_dev < tol,
        C=C,
        max_dev=max(dh_dev, dgg_dev, c_dev),
        dh_dev=dh_dev,
        dgg_dev=dgg_dev,
        c_dev=c_dev,
    )


def _involute_path(path, c):
    segs = []
    for seg in path.segments:
        if isinstance(seg, Line):
            segs.append(Line(c - seg.start, c - seg.end))
        else:
            segs.append(
                Arc(
                    c - seg.center,
                    seg.radius,
                    seg.angle0 + math.pi,
                    seg.angle1 + math.pi,
                )
            )
    return PathSpec(segs, closed=path.closed)


def symmetry_verify(data, inv, samples, tol=1e-9, unit_band=1e-8):
    """Max deviation of F(I(p)) from (F1(p), -F2(p), -F3(p)).

    Normalizes first: basepoint moved to p0 and g rotated about the vertical
    axis so that g(p0) > 0.  samples is a list of (p, route-from-p0) pairs.
    Raises NotUnitModulusC when |g(p0)^2| is not 1, the branch where vertical
    flux is forced instead.
    """
    g_p0 = eval_expr(data.g, inv.p0)
    C = g_p0 ** 2
    if abs(abs(C) - 1.0) > unit_band:
        raise NotUnitModulusC(C)
    phase = cmath.exp(-1j * cmath.phase(g_p0)) if g_p0 != 0 else 1.0
    g_rot = Expr(mul(Const(phase), data.g.node), data.g.domain)
    normalized = replace(data, g=g_rot, basepoint=complex(inv.p0))
    worst = 0.0
    for p, route in samples:
        if abs(route.first - complex(inv.p0)) > 1e-9:
            raise ValueError("sample routes must start at p0")
        fp = immerse(normalized, p, route)
        fip = immerse(normalized, inv.apply(p), _involute_path(route, inv.center))
        dev = np.linalg.norm(fip - np.array([fp[0], -fp[1], -fp[2]]))
        worst = max(worst, dev)
    return worst


@dataclass
class ExactnessReport:
    exact: bool
    vacuous: bool
    magnitudes: dict


def exactness_check(data, basis, tol=1e-10):
    """True iff g dh and (1/g) dh integrate to ~0 over every basis cycle."""
    plus, minus, _ = data.period_forms
    mags = {}
    for label, cyc in basis.items():
        a = abs(integrate_form(plus, cyc, tol * 1e-2))
        b = abs(integrate_form(minus, cyc, tol * 1e-2))
        mags[label] = max(a, b)
    vacuous = not mags
    return ExactnessReport(
        exact=all(m < tol for m in mags.values()), vacuous=vacuous, magnitudes=mags
    )


@dataclass
class PairingReport:
    ok: bool
    vacuous: bool
    pairs: list
    violations: list


def pole_zero_pairing(data, inv, tol=1e-8):
    """Check each pole of g pairs with a zero of g of equal order at I(p),
    and that the zero set of dh is involution-stable."""
    domain = data.domain
    lat = domain.lattice
    if lat is None:
        return PairingReport(ok=True, vacuous=True, pairs=[], violations=[])
    gdiv = locate_divisor(data.g)
    violations = []
    pairs = []
    zeros = gdiv.zeros()
    for p, m in gdiv.poles():
        image = inv.apply(p)
        match = None
        for z, n in zeros:
            if lat.same_point(z, image, 1e-6):
                match = (z, n)
                break
        if match is None:
            violations.append(f"pole at {p} (order {m}) has no zero at I(p)")
        elif match[1] != m:
            violations.append(
                f"pole at {p} order {m} pairs with zero of order {match[1]}"
            )
        else:
            pairs.append((p, match[0], m))
    dh_div = locate_divisor(data.dh)
    dh_zeros = [z for z, _ in dh_div.zeros()]
    for z in dh_zeros:
        image = inv.apply(z)
        if not any(lat.same_point(image, z2, 1e-6) for z2 in dh_zeros):
            violations.append(f"dh zero at {z} not involution-stable")
    vacuous = not gdiv.poles() and not gdiv.zeros()
    return PairingReport(
        ok=not violations, vacuous=vacuous, pairs=pairs, violations=violations
    )


def straight_route(data, p, singularities=(), detour_factor=0.05):
    """Straight route basepoint -> p, detouring around listed singularities
    by semicircles sized relative to the nearest-singularity distance."""
    a, b = data.basepoint, complex(p)
    points = list(data.domain.punctures) + [complex(s) for s in singularities]
    if abs(b - a) < 1e-15:
        return polyline([a, b]) if a != b else PathSpec([Line(a, a)])
    segs = []
    current = a
    direction = (b - a) / abs(b - a)
    blockers = []
    for s in points:
        t = ((s - a) / (b - a)).real
        dist = abs(s - (a + t * (b - a)))
        if 0.0 < t < 1.0 and dist < 1e-9:
            blockers.append((t, s))
    blockers.sort()
    for _, s in blockers:
        nearest = min(
            (abs(s - q) for q in points if abs(s - q) > 1e-12), default=1.0
        )
        r = max(detour_factor * nearest, 1e-3)
        enter = s - r * direction
        leave = s + r * direction
        segs.append(Line(current, enter))
        a0 = cmath.phase(enter - s)
        segs.append(Arc(s, r, a0, a0 + math.pi))
        exit_pt = s + r * cmath.exp(1j * (a0 + math.pi))
        segs.append(Line(exit_pt, leave))
        current = leave
    segs.append(Line(current, b))
    segs = [sg for sg in segs if not (isinstance(sg, Line) and sg.start == sg.end)]
    return PathSpec(segs)
