"""Complex integration paths and contour quadrature that picks its rule
from the contour type.

Paths are ordered lists of line segments and circular arcs.  integrate_paths
integrates many paths in one run and chooses a rule per path:

- A periodic path, one whose single segment is a full-turn circle or a
  torus generator (a Line that closes modulo the lattice, marked by
  generator() or CycleBasis), gets the nested periodic trapezoidal rule.  On
  such a contour a meromorphic integrand is periodic and smooth, so the rule
  converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  It
  takes N = 15 * 2**j equispaced nodes and accepts a path when |T_2N - T_N|
  <= tol (the largest error of the forms, for a vector integrand).  The
  first integrand call samples N = 15 and 30 together, which the first
  test needs; each later doubling reuses the previous samples and calls
  the integrand on its new nodes only.  The cap is TRAPEZOID_CAP nodes.
  A path falls back to Gauss-Kronrod when a generator's integrand differs
  at its two ends by more than tol (not periodic), when the doubling has
  not reached tol at the cap, or when a sample is non-finite (nan where
  the integrand raises, see evaluate); the fallback then raises the same
  errors as any other path.
- Every other path gets adaptive bisection with a Gauss-Kronrod (7, 15)
  pair per panel, run level-synchronously over the paths: each bisection
  level calls the integrand on the nodes of every active panel, in blocks
  of at most BLOCK_PANELS panels, accepts panels with one vector test and
  bisects only the ones that fail.  The panel budget, PANEL_BUDGET = 2**20,
  holds per path and for each bisection level across the run.

Either rule calls the integrand on at most 15 * BLOCK_PANELS points at once.
An integrand maps a flat ndarray of points to an ndarray of values of the
same length (or to a scalar, which broadcasts), or to a (k, n) array for k
forms at once.  A path's value depends on the path, the integrand and tol
only, not on the other paths of the run or on BLOCK_PANELS.

evaluate is the one pole rule for sampled data, here and in the meshes and
the involution report: nan where f raises PoleAt or DomainViolation.
"""

import itertools
import math

import numpy as np

from .errors import DomainViolation, NoConvergence, NonFiniteSample, PoleAt
from .records import record

ENDPOINT_TOL = 1e-12
PANEL_BUDGET = 2 ** 20
# panels per integrand call: bounds the node arrays of one call (15 nodes
# per panel, times the number of forms)
BLOCK_PANELS = 512
# the periodic trapezoidal rule: nodes at its first level, and the node
# count at which it gives a path up to Gauss-Kronrod
TRAPEZOID_NODES = 15
TRAPEZOID_CAP = 15 * 2 ** 6

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
_XK_ARRAY = np.array(_XK)
# row 0: the Kronrod weights; row 1: the Gauss weights on the odd nodes
_WEIGHTS = np.zeros((2, 15), dtype=complex)
_WEIGHTS[0] = _WK
_WEIGHTS[1, 1::2] = _WG


@record(frozen=True)
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


@record(frozen=True)
class Arc:
    center: complex
    radius: float
    angle0: float
    angle1: float

    def point(self, t):
        a = self.angle0 + t * (self.angle1 - self.angle0)
        return self.center + self.radius * np.exp(1j * a)

    def velocity(self, t):
        a = self.angle0 + t * (self.angle1 - self.angle0)
        return self.radius * 1j * (self.angle1 - self.angle0) * np.exp(1j * a)

    @property
    def first(self):
        return self.point(0.0)

    @property
    def last(self):
        return self.point(1.0)


class PathSpec:
    """An oriented chain of segments with coincident endpoints.

    periodic marks a torus generator: one Line that closes modulo the
    lattice (see generator()).  A full-turn circle is periodic by its shape.
    """

    def __init__(self, segments, closed=False, periodic=False):
        if not segments:
            raise ValueError("path needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            if abs(a.last - b.first) > ENDPOINT_TOL:
                raise ValueError(
                    f"segment endpoints disagree: {a.last} vs {b.first}"
                )
        seg = segments[0]
        full_turn = (
            len(segments) == 1
            and isinstance(seg, Arc)
            and abs(abs(seg.angle1 - seg.angle0) - 2.0 * math.pi) <= 1e-12
        )
        # a full turn closes by its angles; its ends differ by its radius
        # times the rounding of exp(2 pi i)
        if closed and not full_turn and (
            abs(segments[-1].last - seg.first) > ENDPOINT_TOL
        ):
            raise ValueError("path marked closed but endpoints do not match")
        if periodic and (len(segments) != 1 or not isinstance(segments[0], Line)):
            raise ValueError("a generator is a single Line")
        self.segments = tuple(segments)
        self.closed = closed
        self.periodic = periodic or full_turn

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
        return PathSpec(
            rev, closed=self.closed,
            periodic=self.periodic and isinstance(rev[0], Line),
        )


def circle(center, radius, orientation=1):
    """Closed circular path about center; orientation +1 = counterclockwise."""
    if orientation >= 0:
        arc = Arc(center, radius, 0.0, 2.0 * math.pi)
    else:
        arc = Arc(center, radius, 2.0 * math.pi, 0.0)
    return PathSpec([arc], closed=True)


def generator(base, span):
    """The torus generator from base to base + span, a lattice vector: a
    Line that closes modulo the lattice, so integrate_paths gives it the
    periodic trapezoidal rule."""
    return PathSpec([Line(base, base + span)], periodic=True)


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


class Lines:
    """Many one-segment straight paths start[k] -> end[k], held as two
    arrays: a batch of len(start) paths, none of them periodic, that
    integrate_paths reads without a PathSpec per path."""

    def __init__(self, start, end):
        self.start = np.asarray(start, dtype=complex).ravel()
        self.end = np.asarray(end, dtype=complex).ravel()
        if self.start.shape != self.end.shape:
            raise ValueError("start and end must have the same length")

    def __len__(self):
        return self.start.size


def _spec_arrays(specs):
    """The _Segments fields of a list of PathSpecs."""
    segments = [seg for path in specs for seg in path.segments]
    arc = [isinstance(seg, Arc) for seg in segments]
    arcs = [s for s, a in zip(segments, arc) if a]
    return (
        np.array(arc, dtype=bool),
        # a Line's start and end - start; an Arc's center and velocity
        # factor radius * i * (angle1 - angle0)
        np.array(
            [s.center if a else s.start for s, a in zip(segments, arc)],
            dtype=complex,
        ),
        np.array(
            [
                s.radius * 1j * (s.angle1 - s.angle0) if a else s.end - s.start
                for s, a in zip(segments, arc)
            ],
            dtype=complex,
        ),
        np.array([s.radius for s in arcs], dtype=float),
        np.array([s.angle0 for s in arcs], dtype=float),
        np.array([s.angle1 - s.angle0 for s in arcs], dtype=float),
        np.array([len(path.segments) for path in specs], dtype=int),
        np.array([path.periodic for path in specs], dtype=bool),
    )


def _line_arrays(lines):
    """The _Segments fields of a Lines batch."""
    n, none = len(lines), np.zeros(0)
    return (
        np.zeros(n, dtype=bool), lines.start, lines.end - lines.start,
        none, none, none, np.ones(n, dtype=int), np.zeros(n, dtype=bool),
    )


class _Segments:
    """The segments of many paths (PathSpecs and Lines batches) as flat
    arrays, so that nodes on any mix of Lines and Arcs are built with array
    arithmetic (the same arithmetic as Line.point/velocity and
    Arc.point/velocity)."""

    def __init__(self, paths):
        parts = []
        for batch, group in itertools.groupby(
            paths, lambda p: isinstance(p, Lines)
        ):
            if batch:
                parts += [_line_arrays(lines) for lines in group]
            else:
                parts.append(_spec_arrays(list(group)))
        (
            self.arc, self.base, self.step, self.radius, self.angle0,
            self.dangle, self.counts, self.periodic,
        ) = (np.concatenate(column) for column in zip(*parts))
        # the row of each Arc in radius, angle0 and dangle
        self.arc_row = np.cumsum(self.arc) - 1
        # each segment's path, and each path's first segment
        self.path_of = np.repeat(np.arange(self.counts.size), self.counts)
        self.first = np.cumsum(self.counts) - self.counts

    def nodes(self, idx, t):
        """Points and velocities at the parameters t (one row per panel) of
        the segments idx."""
        base, step = self.base[idx, None], self.step[idx, None]
        arc = self.arc[idx]
        if not np.count_nonzero(arc):
            return base + t * step, np.broadcast_to(step, t.shape)
        z = np.empty(t.shape, dtype=complex)
        v = np.empty(t.shape, dtype=complex)
        line = ~arc
        z[line] = base[line] + t[line] * step[line]
        v[line] = step[line]
        k = self.arc_row[idx[arc], None]
        e = np.exp(1j * (self.angle0[k] + t[arc] * self.dangle[k]))
        z[arc] = base[arc] + self.radius[k] * e
        v[arc] = step[arc] * e
        return z, v


def evaluate(f, z):
    """f at the flat points z, in calls of at most 15 BLOCK_PANELS points (one
    on no points for an empty z); a scalar result broadcasts.  Where f
    raises PoleAt or DomainViolation, the call is halved until each raising
    point stands alone and holds nan; every other point keeps the value of a
    plain call (f acts point by point)."""
    limit = 15 * BLOCK_PANELS
    # the calls to make, next one last: a work list, as a closure calling
    # itself would keep its arrays alive in a reference cycle
    starts = range(0, max(z.size, 1), limit)
    work = [(s, min(s + limit, z.size)) for s in reversed(starts)]
    parts = []  # in point order; None for a point where f raised
    with np.errstate(all="ignore"):
        while work:
            lo, hi = work.pop()
            try:
                fz = np.asarray(f(z[lo:hi]))
            except (PoleAt, DomainViolation):
                if hi - lo > 1:
                    mid = (lo + hi) // 2
                    work += [(mid, hi), (lo, mid)]
                else:
                    parts.append(None)
                continue
            parts.append(np.broadcast_to(fz, (hi - lo,)) if not fz.ndim else fz)
    if any(p is None for p in parts):
        forms = next((p.shape[:-1] for p in parts if p is not None), ())
        nan = np.full(forms + (1,), complex(math.nan, math.nan))
        parts = [nan if p is None else p for p in parts]
    return np.concatenate(parts, axis=-1)


def _trapezoid(f, geometry, seg, tol):
    """The nested periodic trapezoidal rule on the one-segment paths whose
    segments are seg: N = 15 * 2**j nodes t = k / N.  The first call of f
    samples the nodes of N = 15 and 30 of every path and the far end t = 1
    of every generator, since the first test |T_30 - T_15| <= tol needs
    them all; each later level calls f once on the new nodes of every live
    path (calls of at most 15 BLOCK_PANELS points, see evaluate).  Returns
    (values, done), one row per path; a path that is not done goes to
    Gauss-Kronrod."""
    n = seg.size
    done = np.zeros(n, dtype=bool)
    values = None
    live = np.arange(n)
    ends = np.flatnonzero(~geometry.arc[seg])  # the generators
    nodes = TRAPEZOID_NODES
    # one row of new nodes per level the next call samples: first N = 15
    # and the new nodes of N = 30, each k / 30
    k = 2 * np.arange(nodes)
    levels = np.stack([k, k + 1]) / (2 * nodes)
    total = estimate = None
    while True:
        shape = (live.size, levels.shape[1])
        blocks = [
            geometry.nodes(seg[live], np.broadcast_to(t, shape)) for t in levels
        ]
        owner = [np.repeat(np.arange(live.size), shape[1])] * len(levels)
        body = len(levels) * live.size * shape[1]
        if total is None:
            blocks.append(geometry.nodes(seg[ends], np.ones((ends.size, 1))))
            owner.append(ends)
        z = np.concatenate([zb.ravel() for zb, _ in blocks])
        v = np.concatenate([vb.ravel() for _, vb in blocks])
        owner = np.concatenate(owner)
        with np.errstate(all="ignore"):
            fv = evaluate(f, z) * v
            forms = fv.shape[:-1]
            form_axes = tuple(range(len(forms)))
            finite = np.isfinite(fv).all(axis=form_axes)
            keep = np.bincount(owner[~finite], minlength=live.size) == 0
            rows = fv[..., :body].reshape(forms + (len(levels),) + shape)
            # each path's new samples of a level are a contiguous row in
            # node order, summed along the row: a sum rounds the same
            # whatever else the call sampled (a sum across strided rows
            # would not)
            new = np.moveaxis(rows.sum(axis=-1), (-2, -1), (0, 1))
        if not np.count_nonzero(keep):
            return values, done
        if values is None:
            values = np.zeros((n,) + forms, dtype=complex)
        if total is None:
            # a generator is periodic when f agrees at its two ends
            jump = np.abs(fv[..., body:] - rows[..., 0, ends, 0])
            keep[ends[jump.max(axis=form_axes) > tol]] = False
            total, estimate = new[0], new[0] / nodes
        total = total + new[-1]
        nodes *= 2
        previous, estimate = estimate, total / nodes
        err = np.abs(estimate - previous).reshape(live.size, -1).max(axis=1)
        ok = keep & (err <= tol)
        values[live[ok]] = estimate[ok]
        done[live[ok]] = True
        keep &= ~ok
        if nodes >= TRAPEZOID_CAP or not np.count_nonzero(keep):
            return values, done
        live, total, estimate = live[keep], total[keep], estimate[keep]
        levels = (2 * np.arange(nodes)[None] + 1) / (2 * nodes)


def _gk_panel(f, segments, idx, t0, t1):
    """Gauss-Kronrod (7, 15) on a block of panels [t0, t1] of the segments
    idx; returns (values, errors) with one row per panel.

    f is called once, on the flat array of the block's 15 m nodes.  For a
    (k, n) integrand a panel's values hold the k forms and its error is the
    largest of theirs.
    """
    mid = 0.5 * (t0 + t1)
    half = 0.5 * (t1 - t0)
    t = mid[:, None] + half[:, None] * _XK_ARRAY
    z, v = segments.nodes(idx, t)
    with np.errstate(all="ignore"):
        fz = np.asarray(f(z.ravel()))
        fv = (fz.reshape(fz.shape[:-1] + t.shape) if fz.ndim else fz) * v
        # one (2, 15) x (15,) product per panel and form: a panel's sums
        # round the same whatever the block's shape
        sums = np.matmul(_WEIGHTS, fv[..., None])[..., 0]
        k_sum, g_sum = np.moveaxis(sums, -1, 0)
    # every Kronrod weight is positive, so a nan or inf sample (or an
    # overflowing sum) leaves the Kronrod sum non-finite
    finite = np.isfinite(k_sum).reshape(-1, len(idx)).all(axis=0)
    if not finite.all():
        p = int(np.argmin(finite))
        nodes_ok = np.isfinite(fv[..., p, :]).reshape(-1, 15).all(axis=0)
        bad = z[p, np.argmin(nodes_ok)]
        raise NonFiniteSample(f"integrand non-finite near z = {bad}")
    k_sum = k_sum * half
    g_sum = g_sum * half
    err = np.abs(k_sum - g_sum).reshape(-1, len(idx)).max(axis=0)
    return np.moveaxis(k_sum, -1, 0), err


def _gauss_kronrod(f, geometry, which, tol):
    """Adaptive Gauss-Kronrod over every segment of the paths marked in
    which; one row per path of geometry, zero for the unmarked ones."""
    path_of = geometry.path_of
    n = geometry.counts.size
    seg_tol = tol / geometry.counts[path_of]
    idx = np.flatnonzero(which[path_of])
    t0 = np.zeros(idx.size)
    t1 = np.ones(idx.size)
    bisected = np.zeros(n, dtype=int)
    accepted = []  # (segment, t0, values) per level
    while True:
        blocks = [
            _gk_panel(f, geometry, idx[b], t0[b], t1[b])
            for b in (
                slice(s, s + BLOCK_PANELS)
                for s in range(0, idx.size, BLOCK_PANELS)
            )
        ]
        values = np.concatenate([vals for vals, _ in blocks])
        err = np.concatenate([e for _, e in blocks])
        ok = (err <= seg_tol[idx] * (t1 - t0)) | (err <= 1e-16)
        accepted.append((idx[ok], t0[ok], values[ok]))
        fail = ~ok
        if not np.count_nonzero(fail):
            break
        bisected += np.bincount(path_of[idx[fail]], minlength=n)
        # a path's own budget, and one level's across the run, which bounds
        # the node arrays of a run of many paths that all keep bisecting
        if np.count_nonzero(2 * bisected > PANEL_BUDGET) or (
            2 * np.count_nonzero(fail) > PANEL_BUDGET
        ):
            raise NoConvergence("panel budget exhausted")
        lo, hi = t0[fail], t1[fail]
        tm = 0.5 * (lo + hi)
        idx = np.repeat(idx[fail], 2)
        t0 = np.stack([lo, tm], axis=1).ravel()
        t1 = np.stack([tm, hi], axis=1).ravel()

    seg, start, values = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.lexsort((start, seg))
    # np.add.at adds the rows one at a time from zero in row order, so the
    # sums, and the results, are deterministic
    per_segment = np.zeros((path_of.size,) + values.shape[1:], dtype=complex)
    np.add.at(per_segment, seg[order], values[order])
    out = np.zeros((n,) + values.shape[1:], dtype=complex)
    np.add.at(out, path_of, per_segment)
    return out


def integrate_paths(f, paths, tol=1e-12):
    """Estimates of the contour integrals of f along every path.

    paths is a sequence of PathSpecs and Lines batches (or one Lines
    batch).  Returns one row per path: a complex for an integrand with
    values of shape (n,), k of them for one of shape (k, n).

    A periodic path takes the nested trapezoidal rule: its value is T_2N
    once |T_2N - T_N| <= tol.  Any other path, and a periodic one that
    falls back (see the module docstring), takes adaptive Gauss-Kronrod: a
    panel of a path with s segments is accepted when its error estimate is
    at most tol / s times its parameter length, or at most 1e-16, so the
    estimated absolute error of each path is below tol.  A path may bisect
    PANEL_BUDGET / 2 panels, and a bisection level may hold PANEL_BUDGET
    panels across the run; beyond either it raises NoConvergence.  Each
    segment's accepted panels are summed in increasing parameter and a
    path's segments in order, so the result is deterministic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(paths, Lines):
        paths = [paths]
    if not len(paths):
        return np.zeros(0, dtype=complex)
    geometry = _Segments(paths)
    n = geometry.counts.size
    if not n:
        return np.zeros(0, dtype=complex)
    periodic = np.flatnonzero(geometry.periodic)
    rest = np.ones(n, dtype=bool)
    if periodic.size:
        values, done = _trapezoid(f, geometry, geometry.first[periodic], tol)
        rest[periodic[done]] = False
        if not np.count_nonzero(rest):
            return values
    out = _gauss_kronrod(f, geometry, rest, tol)
    if periodic.size and np.count_nonzero(done):
        out[periodic[done]] = values[done]
    return out


def integrate_path(f, path, tol=1e-12):
    """Estimate of the contour integral of f along path: the one-path case
    of integrate_paths, for an integrand with values of shape (n,)."""
    return complex(integrate_paths(f, [path], tol)[0])
