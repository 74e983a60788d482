"""Weierstrass data: immersion, periods, flux, deformation, symmetry checks.

The immersion is F(p) = Re of the path integral of

    ( (1/2)(1/g - g),  (i/2)(1/g + g),  1 ) dh

from the basepoint.  Periods close the surface when, over every basis
cycle, the first integral equals the conjugate of the second and the third
has zero real part; flux is the imaginary part of the same triple.
"""

import cmath
import math

import numpy as np

from .errors import (
    DomainError,
    NonFiniteSample,
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
    reciprocal_values,
)
from .paths import (
    Arc,
    Line,
    PathSpec,
    evaluate,
    integrate_paths,
    polyline,
)
from .records import record, replace

# the seed of the generic sample points (_generic_samples)
SAMPLE_SEED = 20240817
# symmetry_verify refuses C = g(p0)^2 whose modulus is farther than this
# from 1: the branch where vertical flux is forced instead
UNIT_BAND = 1e-8
# a straight route's semicircle about a puncture on it has this fraction of
# the distance to the nearest other puncture as its radius
DETOUR_FACTOR = 0.05


@record(frozen=True)
class WeierstrassData:
    g: Expr
    dh: FormExpr
    basepoint: complex
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "basepoint", complex(self.basepoint))

    @property
    def domain(self):
        return self.g.domain

    def period_values(self, u):
        """The coefficients of the period forms (g dh, dh/g, dh) at the
        points u, as a (3, n) array, from one joint evaluation of g and dh.

        Raises PoleAt where g or dh has a pole or g vanishes.  The
        Lopez-Ros deformation g -> lam*g scales the rows (lopez_ros_triples).
        """
        g, h = eval_expr((self.g, self.dh.coeff), u)
        return np.stack([g * h, reciprocal_values(g, u) * h, h])

    def log_gauss_form(self):
        """dg/g as a one-form."""
        return log_derivative(self.g)


@record
class CycleBasis:
    """Named basis cycles.  A single Line that closes modulo the lattice is
    a torus generator: the basis holds it marked periodic (paths.generator),
    so that quadrature takes the periodic trapezoidal rule on it."""

    cycles: list  # of PathSpec; closed literally or modulo the lattice
    labels: list
    lattice: object = None

    def __post_init__(self):
        if len(self.cycles) != len(self.labels):
            raise ValueError("cycles and labels must align")
        marked = []
        for c in self.cycles:
            if not c.closed:
                # torus generator cycles close only modulo the lattice
                if self.lattice is None or not self.lattice.same_point(
                    c.first, c.last, 1e-10
                ):
                    raise ValueError(
                        "basis cycles must be closed (mod the lattice on a torus)"
                    )
                if len(c.segments) == 1 and isinstance(c.segments[0], Line):
                    c = PathSpec(c.segments, periodic=True)
            marked.append(c)
        self.cycles = marked

    def items(self):
        return list(zip(self.labels, self.cycles))


@record
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


@record
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


@record
class FluxVector:
    components: tuple  # three reals

    def horizontal_magnitude(self):
        f1, f2, _ = self.components
        return math.hypot(f1, f2)

    def __iter__(self):
        return iter(self.components)


def period_triples(data, paths, tol=1e-10):
    """Integrals (P+, P-, P3) of (g dh, dh/g, dh) along every path (the
    PathSpecs and Lines batches of integrate_paths), one row per path, from
    one quadrature run whose error test is joint over the three forms."""
    try:
        return integrate_paths(data.period_values, paths, tol).reshape(-1, 3)
    except PoleAt as exc:
        raise PathThroughPole(str(exc)) from exc


def period_triple(data, path, tol=1e-10):
    """Integrals (P+, P-, P3) of (g dh, dh/g, dh) along path."""
    return tuple(period_triples(data, [path], tol)[0].tolist())


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
    _check_route(route, data.basepoint, p)
    return _position(period_triple(data, route, tol))


def _check_route(route, start, end):
    if abs(route.first - start) > 1e-9:
        raise ValueError("route must start at the basepoint")
    if abs(route.last - complex(end)) > 1e-9:
        raise ValueError("route must end at p")


def _position(triple):
    """The immersion increment (Re of recombine) of one period triple."""
    return np.array([v.real for v in recombine(*triple)])


def triples_report(labels, triples, tol):
    """PeriodReport of stored period triples, one row per labelled cycle."""
    rows = zip(labels, triples.tolist())
    return PeriodReport([CyclePeriods(l, *row) for l, row in rows], tol)


def period_report(data, basis, tol=1e-10):
    """All three period integrals per basis cycle plus closure residuals."""
    triples = period_triples(data, basis.cycles, tol)
    return triples_report(basis.labels, triples, tol)


def _flux_vectors(triples):
    """Flux vector of every stored period triple of a closed cycle."""
    return [
        FluxVector(tuple(v.imag for v in recombine(*row)))
        for row in triples.tolist()
    ]


def fluxes(data, cycles, tol=1e-10):
    """Flux vector of every closed cycle, from one period_triples run."""
    return _flux_vectors(period_triples(data, cycles, tol))


def flux(data, cycle, tol=1e-10):
    """Flux vector of one closed cycle: Im of the three period integrals."""
    return fluxes(data, [cycle], tol)[0]


@record
class VerticalFluxReport:
    vertical: bool
    vacuous: bool
    horizontal_magnitudes: dict


def vertical_flux_report(labels, triples, tol=1e-9):
    """VerticalFluxReport of stored period triples, one per labelled cycle."""
    mags = {
        label: f.horizontal_magnitude()
        for label, f in zip(labels, _flux_vectors(triples))
    }
    vacuous = not mags
    vertical = all(m < tol for m in mags.values())
    return VerticalFluxReport(vertical, vacuous, mags)


def is_vertical_flux(data, basis, tol=1e-9):
    """True iff every basis cycle has vanishing horizontal flux."""
    triples = period_triples(data, basis.cycles)
    return vertical_flux_report(basis.labels, triples, tol)


def checked_lambda(lam):
    """lam as a float; NonpositiveLambda unless it is finite and positive."""
    lam = float(lam)
    if not 0 < lam < math.inf:
        raise NonpositiveLambda(f"lambda = {lam} must be finite and positive")
    return lam


def lopez_ros(data, lam):
    """Deform (g, dh) to (lam * g, dh); closure is preserved under vertical flux."""
    lam = checked_lambda(lam)
    if lam == 1.0:
        return data
    g = Expr(mul(Const(complex(lam)), data.g.node), data.g.domain)
    label = f"{data.label}@lambda={lam:g}" if data.label else f"lambda={lam:g}"
    return replace(data, g=g, label=label)


def lopez_ros_triples(triples, lam):
    """Period triples of lopez_ros(data, lam) from data's: the deformation
    scales each row (P+, P-, P3) by (lam, 1/lam, 1) (Lopez & Ros, J.
    Differential Geom. 33, 1991)."""
    if lam == 1.0:
        return triples
    triples = np.array(triples, dtype=complex)
    triples[..., 0] *= lam
    triples[..., 1] /= lam
    return triples


def finite_value(e, u):
    """eval_expr(e, u) at a scalar u; NonFiniteSample unless it is finite."""
    with np.errstate(all="ignore"):
        val = eval_expr(e, u)
    if not cmath.isfinite(val):
        raise NonFiniteSample(f"{e.to_text()} is {val} at u = {u}, not finite")
    return val


def _generic_samples(domain, n, seed=SAMPLE_SEED):
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
        if not any(domain.same_point(u, p, 5e-2) for p in domain.punctures):
            out.append(u)
    return out


def _sampled_form_deviation(w, inv, samples):
    """max |w + I*w| over the samples (an array), from one evaluation."""
    sym = w + pullback(w, inv)
    return float(np.abs(eval_expr(sym.coeff, samples)).max())


@record
class InvolutionReport:
    dh_odd: bool
    dgg_odd: bool
    C: complex
    max_dev: float
    dh_dev: float
    dgg_dev: float
    c_dev: float


def involution_report(data, inv, tol=1e-8, n_samples=20):
    """Check I*dh = -dh, I*(dg/g) = -dg/g, and g(I(p)) g(p) = g(p0)^2 on
    generic samples, drawn until n_samples (11 draws at most) pass a screen
    by paths.evaluate, the one pole rule: none of g, g o I, dg/g, dh is nan."""
    domain = data.domain
    for p in domain.punctures:
        image = inv.apply(p)
        if not any(domain.same_point(image, q, 1e-8) for q in domain.punctures):
            raise DomainError(
                f"involution does not preserve punctures: I({p}) = {image}"
            )
    dgg = data.log_gauss_form()
    samples = np.zeros(0, dtype=complex)
    attempts = 0
    while samples.size < n_samples:
        cands = np.array(_generic_samples(
            domain, n_samples - samples.size, SAMPLE_SEED + attempts
        ))
        values = [
            evaluate(data.g, cands),
            evaluate(data.g, inv.center - cands),
            evaluate(dgg.coeff, cands),
            evaluate(data.dh.coeff, cands),
        ]
        keep = ~np.isnan(values).any(axis=0)
        samples = np.concatenate([samples, cands[keep]])
        attempts += 1
        if attempts > 10:
            raise SampleAtPole("could not find pole-free generic samples")
    dh_dev = _sampled_form_deviation(data.dh, inv, samples)
    dgg_dev = _sampled_form_deviation(dgg, inv, samples)
    g_p0 = finite_value(data.g, inv.p0)
    C = g_p0 * g_p0  # inf where the square overflows, never OverflowError
    images = eval_expr(data.g, inv.center - samples)
    c_dev = float(np.abs(images * eval_expr(data.g, samples) - C).max())
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


def symmetry_verify(data, inv, samples):
    """Max deviation of F(I(p)) from (F1(p), -F2(p), -F3(p)).

    Normalizes first: basepoint moved to p0 and g rotated about the vertical
    axis so that g(p0) > 0.  samples is a list of (p, route-from-p0) pairs,
    integrated at period_triples' default tol; the caller compares the
    deviation with its own tolerance.  Raises NotUnitModulusC when |g(p0)^2|
    is farther than UNIT_BAND from 1, the branch where vertical flux is
    forced instead.
    """
    g_p0 = finite_value(data.g, inv.p0)
    C = g_p0 * g_p0
    if abs(abs(C) - 1.0) > UNIT_BAND:
        raise NotUnitModulusC(C)
    phase = cmath.exp(-1j * cmath.phase(g_p0)) if g_p0 != 0 else 1.0
    g_rot = Expr(mul(Const(phase), data.g.node), data.g.domain)
    normalized = replace(data, g=g_rot, basepoint=complex(inv.p0))
    # every route and its image, integrated in one run at immerse's tol
    routes = []
    for p, route in samples:
        image = _involute_path(route, inv.center)
        _check_route(route, normalized.basepoint, p)
        _check_route(image, normalized.basepoint, inv.apply(p))
        routes += [route, image]
    triples = period_triples(normalized, routes).tolist()
    worst = 0.0
    for a, b in zip(triples[::2], triples[1::2]):
        fp, fip = _position(a), _position(b)
        dev = np.linalg.norm(fip - np.array([fp[0], -fp[1], -fp[2]]))
        worst = max(worst, dev)
    return worst


def straight_route(data, p):
    """Straight route basepoint -> p, detouring around the domain's
    punctures on it by semicircles of DETOUR_FACTOR times the distance to
    the nearest other puncture."""
    a, b = data.basepoint, complex(p)
    points = data.domain.punctures
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
        r = max(DETOUR_FACTOR * nearest, 1e-3)
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
