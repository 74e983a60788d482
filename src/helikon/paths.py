"""Complex integration paths and adaptive contour quadrature.

Paths are ordered lists of line segments and circular arcs.  Integration is
adaptive bisection with a Gauss-Kronrod (7, 15) pair per panel; the panel
budget is 2**20.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import NoConvergence, NonFiniteSample

ENDPOINT_TOL = 1e-12
PANEL_BUDGET = 2 ** 20

# Kronrod 15-point nodes on [-1, 1] (odd indices are the embedded Gauss-7
# nodes) and the two weight sets, to the full QUADPACK digits (qk15.f).
_XK = (
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
)


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def point(self, t):
        return self.start + t * (self.end - self.start)

    def velocity(self, t):
        return self.end - self.start

    @property
    def first(self):
        return self.start

    @property
    def last(self):
        return self.end


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    angle0: float
    angle1: float

    def point(self, t):
        a = self.angle0 + t * (self.angle1 - self.angle0)
        return self.center + self.radius * cmath.exp(1j * a)

    def velocity(self, t):
        a = self.angle0 + t * (self.angle1 - self.angle0)
        return self.radius * 1j * (self.angle1 - self.angle0) * cmath.exp(1j * a)

    @property
    def first(self):
        return self.point(0.0)

    @property
    def last(self):
        return self.point(1.0)


class PathSpec:
    """An oriented chain of segments with coincident endpoints."""

    def __init__(self, segments, closed=False):
        if not segments:
            raise ValueError("path needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            if abs(a.last - b.first) > ENDPOINT_TOL:
                raise ValueError(
                    f"segment endpoints disagree: {a.last} vs {b.first}"
                )
        if closed and abs(segments[-1].last - segments[0].first) > ENDPOINT_TOL:
            raise ValueError("path marked closed but endpoints do not match")
        self.segments = tuple(segments)
        self.closed = closed

    @property
    def first(self):
        return self.segments[0].first

    @property
    def last(self):
        return self.segments[-1].last

    def reversed(self):
        rev = []
        for seg in reversed(self.segments):
            if isinstance(seg, Line):
                rev.append(Line(seg.end, seg.start))
            else:
                rev.append(Arc(seg.center, seg.radius, seg.angle1, seg.angle0))
        return PathSpec(rev, closed=self.closed)

    def samples(self, n_per_segment=16):
        """Points along the path trace, for collision checks."""
        pts = []
        for seg in self.segments:
            for k in range(n_per_segment):
                pts.append(seg.point(k / n_per_segment))
        pts.append(self.segments[-1].last)
        return pts


def circle(center, radius, orientation=1):
    """Closed circular path about center; orientation +1 = counterclockwise."""
    if orientation >= 0:
        arc = Arc(center, radius, 0.0, 2.0 * math.pi)
    else:
        arc = Arc(center, radius, 2.0 * math.pi, 0.0)
    return PathSpec([arc], closed=True)


def polyline(points, closed=False):
    """Straight-line path through the given points."""
    segs = [Line(a, b) for a, b in zip(points, points[1:])]
    if closed and abs(points[-1] - points[0]) > ENDPOINT_TOL:
        segs.append(Line(points[-1], points[0]))
    return PathSpec(segs, closed=closed)


def rectangle(corner, width, height, orientation=1):
    """Closed axis-aligned rectangle path; width/height may be complex spans."""
    a = corner
    b = corner + width
    c = corner + width + height
    d = corner + height
    pts = [a, b, c, d] if orientation >= 0 else [a, d, c, b]
    return polyline(pts, closed=True)


def _gk_panel(f, seg, t0, t1):
    """Gauss-Kronrod (7,15) on one parameter panel; returns (value, err)."""
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    k_sum = 0.0 + 0.0j
    g_sum = 0.0 + 0.0j
    for i in range(15):
        t = mid + half * _XK[i]
        z = seg.point(t)
        fv = f(z) * seg.velocity(t)
        if not (math.isfinite(fv.real) and math.isfinite(fv.imag)):
            raise NonFiniteSample(f"integrand non-finite at z = {z}")
        k_sum += _WK[i] * fv
        if i % 2 == 1:
            g_sum += _WG[i // 2] * fv
    k_sum *= half
    g_sum *= half
    return k_sum, abs(k_sum - g_sum)


def integrate_path(f, path, tol=1e-12):
    """Adaptive estimate of the contour integral of f along path.

    The estimated absolute error is kept below tol; deterministic for fixed
    inputs (worklist processed in a fixed order).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    total = 0.0 + 0.0j
    budget = PANEL_BUDGET
    seg_tol = tol / len(path.segments)
    for seg in path.segments:
        stack = [(0.0, 1.0)]
        acc = 0.0 + 0.0j
        while stack:
            t0, t1 = stack.pop()
            val, err = _gk_panel(f, seg, t0, t1)
            if err <= seg_tol * (t1 - t0) or err <= 1e-16:
                acc += val
            else:
                if budget <= 0:
                    raise NoConvergence("panel budget exhausted")
                budget -= 2
                tm = 0.5 * (t0 + t1)
                stack.append((tm, t1))
                stack.append((t0, tm))
        total += acc
    return total
