"""Mesh discretization, OBJ export, and the embeddedness probe.

Vertices are immersed by cumulative integration over a spanning tree of
grid edges.  The period triples of all the tree edges come from one
level-synchronous quadrature run, and g at the vertices and at the edge
length nodes from paths.evaluate (nan at a pole of g), so an n x m mesh
costs O(nm) work in O(nm / paths.BLOCK_PANELS) array calls.  One walk of
the tree sums the triples into each vertex's path sum from the root, and
the mesh at any lambda of a sweep is the recombined path sums.  A mesh
holds arrays from assembly to verdict: its faces, normals, vertex and
edge lists are built only when read.

The self-intersection probe pairs a spatial hash (extrinsic nearness) with
shortest paths on the mesh edge graph (intrinsic separation), the
discretized form of a near-pair with large intrinsic distance.  The hash
sorts the vertices once by the code of their cube of side delta_ext, whose
keys floor(xyz / delta_ext) must be exact integers (max |xyz| below 2^52
delta_ext), and reads each vertex's 13 forward neighbour cubes as 5 code
ranges.  Three exact bounds, each with a 1e-9 slack for rounding, keep the
searches few and short: a grid L-path from above drops near candidates
(_grid_path_within), the grid gaps' least crossings from below decide far
ones at distance inf (_grid_gap_bound), and the chord steers an A* search
that settles what Dijkstra would (_graph_distance), so the pairs and their
distances are Dijkstra's to the bit.  Far pairs come source by source
from one generator: the probe lists them all, while a lambda sweep's
verdict stops at the first, and a sweep's verdicts share one set of grid
geometry (_grid_edges).
"""

import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DisconnectedSampling, NotVerticalFlux, ThresholdOrder
from .expr import eval_expr
from .paths import BLOCK_PANELS, Lines, evaluate
from .records import field, record
from .surface import (
    checked_lambda,
    lopez_ros,
    lopez_ros_triples,
    period_triples,
    recombine,
    straight_route,
    triples_report,
    vertical_flux_report,
)

# graph shortest paths overestimate geodesics; absorb mesh quality by
# widening the user's intrinsic threshold by this documented factor
INTRINSIC_SLACK = 1.5
# a lambda sweep bisects a transition until the bracket is narrower than
# this fraction of its lower end
BRACKET_REL = 0.01


@record(frozen=True)
class SamplingSpec:
    """Axis-aligned sampling rectangle in the u-plane with exclusion disks."""

    umin: float
    umax: float
    vmin: float
    vmax: float
    nx: int = 40
    ny: int = 40
    exclusions: tuple = ()  # of (center: complex, radius: float)

    def __post_init__(self):
        if self.umax <= self.umin or self.vmax <= self.vmin:
            raise ValueError("sampling rectangle is empty")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid resolution must be at least 1x1")

    def grid_point(self, i, j):
        s = i / max(self.nx - 1, 1)
        t = j / max(self.ny - 1, 1)
        return complex(
            self.umin + s * (self.umax - self.umin),
            self.vmin + t * (self.vmax - self.vmin),
        )

    def grid_points(self):
        """Every grid point as an (nx, ny) complex array: [i, j] holds
        grid_point(i, j), with the same arithmetic."""
        s = np.arange(self.nx) / max(self.nx - 1, 1)
        t = np.arange(self.ny) / max(self.ny - 1, 1)
        u = np.empty((self.nx, self.ny), dtype=complex)
        u.real = (self.umin + s * (self.umax - self.umin))[:, None]
        u.imag = (self.vmin + t * (self.vmax - self.vmin))[None, :]
        return u

    def inclusion_mask(self):
        u = self.grid_points()
        mask = np.ones(u.shape, dtype=bool)
        for c, r in self.exclusions:
            mask &= np.abs(u - complex(c)) > r
        return mask


def _built(build):
    """A read-only property whose value build(mesh) is made on first read."""
    def get(mesh):
        if build.__name__ not in mesh._lists:
            mesh._lists[build.__name__] = build(mesh)
        return mesh._lists[build.__name__]
    return property(get, doc=build.__doc__)


@record(eq=False)
class SurfaceMesh:
    """A triangulated grid held as arrays: per vertex its u, position and
    value of g; per grid edge its two vertex indices and its intrinsic
    length; and per grid point its vertex index."""

    u: np.ndarray  # complex, one per vertex
    xyz: np.ndarray  # (V, 3) positions
    g: np.ndarray  # complex, one per vertex, nan at a pole
    edge_ends: np.ndarray  # (E, 2) vertex indices
    edge_lengths: np.ndarray  # (E,) intrinsic lengths
    # (nx, ny) vertex index per grid point, -1 if excluded; each vertex
    # sits at one grid point
    grid: np.ndarray
    label: str = ""
    _lists: dict = field(default_factory=dict, init=False, repr=False)

    @_built
    def faces(self):
        """(a, b, c) and (a, c, d) per grid square whose corners a = (i, j),
        b = (i + 1, j), c = (i + 1, j + 1) and d = (i, j + 1) are vertices."""
        v = self.grid
        corners = np.stack([v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]])
        quad = corners[:, (corners >= 0).all(axis=0)].tolist()
        return [face for a, b, c, d in zip(*quad)
                for face in ((a, b, c), (a, c, d))]

    @_built
    def normals(self):
        """The (V, 3) unit normals, the Gauss map of g."""
        return _gauss_normals(self.g)

    @_built
    def vertices(self):
        """(u: complex, position: ndarray(3), normal: ndarray(3)) per
        vertex."""
        return list(zip(self.u.tolist(), self.xyz, self.normals))

    @_built
    def edges(self):
        """(i, j, intrinsic length) per grid edge."""
        ia, ib = self.edge_ends.T.tolist()
        return list(zip(ia, ib, self.edge_lengths.tolist()))

    def positions(self):
        """The (V, 3) vertex positions as a read-only view of xyz."""
        view = self.xyz.view()
        view.flags.writeable = False
        return view

    def bounding_box_diagonal(self):
        box = self.xyz.max(axis=0) - self.xyz.min(axis=0)
        return float(np.linalg.norm(box))

    def max_edge_length(self):
        lengths = self.edge_lengths
        return float(lengths.max()) if len(lengths) else 0.0


# the 8-point Gauss-Legendre rule of the edge lengths, its nodes as
# fractions of an edge; the values of numpy.polynomial.legendre.leggauss(8)
# to the bit, written out so that importing mesh does not load
# numpy.polynomial
_GL_T = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
    0.7966664774136267, 0.9602898564975362,
])
_GL_W = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
    0.22238103445337443, 0.10122853629037706,
])
_GL_S = 0.5 * (_GL_T + 1.0)


def _edge_sums(data, u0, u1):
    """(A, B) = 8-point Gauss sums of |g| |dh| and |dh| / |g| on every edge
    u0[k] -> u1[k], one row per edge.

    The edge's intrinsic length under lopez_ros(data, lam) is
    |u1 - u0| (lam A + B / lam) / 4; A is inf where that length is infinite
    (a pole of g, or a zero of g where dh does not vanish).  Nodes where g
    and dh both vanish add nothing.
    """
    out = np.empty((len(u0), 2))
    per_block = 15 * BLOCK_PANELS // len(_GL_S)  # one call of evaluate
    for s in range(0, len(u0), per_block):
        a = u0[s:s + per_block, None]
        b = u1[s:s + per_block, None]
        u = (a + _GL_S * (b - a)).ravel()
        h = np.abs(eval_expr(data.dh.coeff, u)).reshape(-1, len(_GL_S))
        m = np.abs(evaluate(data.g, u)).reshape(h.shape)
        zero = m == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = np.stack(
                [np.vecdot(m * h, _GL_W),
                 np.vecdot(np.where(zero, 0.0, h / m), _GL_W)],
                axis=1,
            )
        infinite = np.isnan(m) | (zero & (h > 0))
        sums[infinite.any(axis=1)] = (math.inf, 0.0)
        out[s:s + per_block] = sums
    return out


class _MeshIntegrals(NamedTuple):
    """The lambda-independent part of a mesh: one pass of quadrature.

    Row 0 of triples is the period triple of the route from the basepoint to
    the root vertex (zero when the root is the basepoint); row k > 0 is that
    of the spanning-tree edge parent[k] -> child[k], in breadth-first order.
    The tree's level d holds rows level_ends[d - 1] to level_ends[d] (the
    root alone, level 0, ends at 1).
    """

    verts: np.ndarray  # complex u per vertex
    grid: np.ndarray  # (nx, ny) vertex index per grid point, -1 if excluded
    child: np.ndarray
    parent: np.ndarray
    level_ends: np.ndarray
    triples: np.ndarray  # complex, one (P+, P-, P3) row per tree edge
    sums: np.ndarray  # complex, the triples' sum over each vertex's path
    g_values: np.ndarray  # complex g per vertex, nan at poles
    edges: np.ndarray  # (i, j) vertex index pairs of the grid edges
    edge_du: np.ndarray  # |u_j - u_i|
    edge_sums: np.ndarray  # (A, B) of _edge_sums per grid edge


def _mesh_integrals(data, spec, tol=1e-10):
    """Every quadrature and expression evaluation a mesh of data needs.

    The root is the included vertex nearest the basepoint, reached by the
    route policy; the other vertices hang off a breadth-first spanning tree
    of grid edges, which must reach every included vertex.  Vertices are
    numbered, and grid edges listed, in row-major (i, j) order.
    """
    mask = spec.inclusion_mask()
    if not np.count_nonzero(mask):
        raise DisconnectedSampling("every grid vertex is excluded")

    grid = spec.grid_points()
    index = -np.ones(mask.shape, dtype=int)
    index[mask] = np.arange(np.count_nonzero(mask))
    points = grid[mask]

    # grid edge (i, j) -> (i + 1 - e, j + e), listed by (i, j, e)
    step = np.zeros(mask.shape + (2,), dtype=bool)
    step[:-1, :, 0] = mask[:-1, :] & mask[1:, :]
    step[:, :-1, 1] = mask[:, :-1] & mask[:, 1:]
    i, j, e = np.nonzero(step)
    ends = np.stack([index[i, j], index[i + 1 - e, j + e]], axis=1)

    # breadth-first spanning tree, one level at a time: the next level is
    # the unseen neighbours of this one in (vertex, direction) order, the
    # directions +i, -i, +j, -j, each vertex kept where it first occurs
    neighbours = -np.ones((len(points), 4), dtype=int)
    neighbours[ends[:, 0], 2 * e] = ends[:, 1]
    neighbours[ends[:, 1], 2 * e + 1] = ends[:, 0]
    root = int(np.argmin(np.abs(points - data.basepoint)))
    seen = np.zeros(len(points), dtype=bool)
    seen[root] = True
    level = np.array([root])
    child, parent = [level], [np.array([-1])]
    while True:
        cand = neighbours[level].ravel()
        new = np.flatnonzero(cand >= 0)
        new = new[~seen[cand[new]]]
        if not new.size:
            break
        order = np.argsort(cand[new], kind="stable")
        first = np.ones(len(new), dtype=bool)
        first[order[1:]] = np.diff(cand[new[order]]) != 0
        new = new[first]
        parent.append(level[new // 4])
        level = cand[new]
        seen[level] = True
        child.append(level)
    level_ends = np.cumsum([len(c) for c in child])
    if level_ends[-1] < len(points):
        raise DisconnectedSampling(
            f"exclusion disks split the region: {len(points) - level_ends[-1]}"
            " vertices unreachable"
        )
    child, parent = np.concatenate(child), np.concatenate(parent)

    edges = Lines(points[parent[1:]], points[child[1:]])
    root_u = complex(points[root])
    if abs(root_u - data.basepoint) < 1e-13:
        triples = np.concatenate(
            [np.zeros((1, 3), dtype=complex), period_triples(data, edges, tol)]
        )
    else:
        route = straight_route(data, root_u)
        triples = period_triples(data, [route, edges], tol)
    # one level of the tree at a time: its parents, one level up, are summed
    sums = np.empty((len(points), 3), dtype=complex)
    sums[root] = triples[0]
    for lo, hi in zip(level_ends[:-1], level_ends[1:]):
        sums[child[lo:hi]] = sums[parent[lo:hi]] + triples[lo:hi]

    g_values = evaluate(data.g, points)
    u0, u1 = points[ends[:, 0]], points[ends[:, 1]]
    for shared in (points, index, ends, g_values):
        shared.flags.writeable = False
    return _MeshIntegrals(
        verts=points,
        grid=index,
        child=child,
        parent=parent,
        level_ends=level_ends,
        triples=triples,
        sums=sums,
        g_values=g_values,
        edges=ends,
        edge_du=np.abs(u1 - u0),
        edge_sums=_edge_sums(data, u0, u1),
    )


def _gauss_normals(g_values):
    """Unit normals, the inverse stereographic images of an array of g
    values (nan marks a pole, which maps to the north pole)."""
    # |g| <= 1e8 (so |g|^2 <= 1e16) is tested before squaring, which
    # would overflow for |g| above about 1.3e154; nan fails it too
    ok = np.abs(g_values) <= 1e8
    normals = np.zeros((len(g_values), 3))
    normals[:, 2] = 1.0
    g = g_values[ok]
    m2 = np.abs(g) ** 2
    normals[ok] = np.stack(
        [2.0 * g.real, 2.0 * g.imag, m2 - 1.0], axis=1
    ) / (m2 + 1.0)[:, None]
    normals.flags.writeable = False
    return normals


def _assemble_mesh(integrals, lam, label):
    """The mesh of lopez_ros(data, lam) from data's _mesh_integrals, with
    read-only arrays.  g -> lam g scales the path sums and the edge Gauss
    sums (A, B) by (lam, 1/lam, 1) (lopez_ros_triples) and (lam, 1/lam)."""
    sums = lopez_ros_triples(integrals.sums, lam)
    positions = np.stack([c.real for c in recombine(*sums.T)], axis=1)
    g_values = integrals.g_values
    if lam != 1.0:
        g_values = complex(lam) * g_values
    sum_a, sum_b = integrals.edge_sums.T
    ia, ib = integrals.edges.T
    length = 0.25 * integrals.edge_du * (lam * sum_a + sum_b / lam)
    chord = np.linalg.norm(positions[ib] - positions[ia], axis=1)
    # intrinsic arc length can never undercut the chord
    length = np.maximum(length, chord)
    for own in (positions, g_values, length):
        own.flags.writeable = False
    return SurfaceMesh(
        u=integrals.verts,
        xyz=positions,
        g=g_values,
        edge_ends=integrals.edges,
        edge_lengths=length,
        grid=integrals.grid,
        label=label,
    )


def build_mesh(data, spec, tol=1e-10):
    """Discretize the immersion over the sampling rectangle: the included
    grid vertex nearest the basepoint by the route policy, the others by
    cumulative integration along a breadth-first tree of grid edges."""
    return _assemble_mesh(_mesh_integrals(data, spec, tol), 1.0, data.label)


def export_mesh(mesh, fmt="obj"):
    """Serialize the mesh; OBJ with v/vn/f records, 9 significant digits."""
    if fmt.lower() != "obj":
        raise ValueError(f"unsupported mesh format: {fmt}")
    if not len(mesh.u):
        raise ValueError("refusing to export an empty mesh")
    lines = ["v %.9g %.9g %.9g" % tuple(p) for p in mesh.xyz.tolist()]
    lines += ["vn %.9g %.9g %.9g" % tuple(n) for n in mesh.normals.tolist()]
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1}//{a + 1} {b + 1}//{b + 1} {c + 1}//{c + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


@record
class ProbeReport:
    pairs: list  # of (index a, index b, extrinsic dist, intrinsic dist)
    delta_ext: float
    delta_int: float  # effective (slack already applied)
    embedded: bool


def _ranges(lo, count):
    """The indices lo[k], lo[k] + 1, .., lo[k] + count[k] - 1 of every k in
    turn, as one array."""
    offset = np.repeat(lo - (np.cumsum(count) - count), count)
    return np.arange(len(offset)) + offset


def _spatial_hash_pairs(positions, cell):
    """Candidate index pairs (a, b, d) at extrinsic distance d < cell,
    sorted by (a, b).

    Vertices are binned into cubes of side cell by integer key, and a pair
    is tested when its cubes are equal or neighbours; a is the vertex of the
    cube whose key comes first (the smaller index within one cube).
    """
    keys = np.floor(positions / cell).astype(np.int64)
    # each axis numbers its n distinct keys in order from 1, one apart where
    # keys are adjacent and two apart across a gap, so that a step of one
    # stays below the radix 2n + 1 and meets a key exactly where the key's
    # own step does.  The mixed-radix cube codes sort as the keys do and
    # are below (2V + 1)^3
    numbers, radix = [], []
    for k in keys.T:
        values, inverse = np.unique(k, return_inverse=True)
        gaps = np.minimum(np.diff(values, prepend=values[:1]), 2)
        numbers.append((np.cumsum(gaps) + 1)[inverse])
        radix.append(2 * len(values) + 1)
    step_y, step_x = radix[2], radix[1] * radix[2]  # one cube along y, x
    code = (numbers[0] * radix[1] + numbers[1]) * radix[2] + numbers[2]
    order = np.argsort(code, kind="stable")  # by cube, then by index
    code = code[order]

    # the 13 forward neighbour cubes of the vertex at sorted position p and
    # code c, as 5 ranges [lo, hi) of sorted positions: the rest of its own
    # cube with (0, 0, +1), from p + 1 to the last code c + 1; then
    # (0, +1, .) and (+1, -1|0|+1, .), each the codes c + shift - 1 to
    # c + shift + 1.  A row per range keeps searchsorted's keys sorted
    shifts = np.array([step_y, step_x - step_y, step_x, step_x + step_y])
    mid = code + shifts[:, None]
    lo = np.vstack(
        [np.arange(1, len(code) + 1), np.searchsorted(code, mid - 1)]
    )
    hi = np.searchsorted(code, np.vstack([code + 1, mid + 1]), side="right")
    # every pair (order[p], order[q]), q in a range of p
    count = (hi - lo).ravel()
    a = np.repeat(np.tile(order, 5), count)
    b = order[_ranges(lo.ravel(), count)]
    diff = positions[a] - positions[b]
    d = np.sqrt(np.vecdot(diff, diff))  # the arithmetic of np.linalg.norm
    near = np.flatnonzero(d < cell)
    near = near[np.lexsort((b[near], a[near]))]
    return list(zip(a[near].tolist(), b[near].tolist(), d[near].tolist()))


def _csr_graph(mesh):
    """The edge graph as (ptr, nbr, length, xyz): the neighbours of v and
    the lengths of the edges to them are nbr[ptr[v]:ptr[v + 1]] and
    length[ptr[v]:ptr[v + 1]], in the order of mesh.edge_ends, and xyz
    holds the vertex positions."""
    # edge k as the half-edges 2k (i -> j) and 2k + 1 (j -> i); a stable
    # sort by the tail keeps each vertex's half-edges in edge order
    half = np.stack([mesh.edge_ends, mesh.edge_ends[:, ::-1]], axis=1)
    tail, head = half.reshape(-1, 2).T
    order = np.argsort(tail, kind="stable")
    ptr = np.searchsorted(tail[order], np.arange(len(mesh.u) + 1))
    length = np.repeat(mesh.edge_lengths, 2)[order]
    return ptr.tolist(), head[order].tolist(), length.tolist(), mesh.xyz


def _grid_edges(mesh):
    """(ij, lo, span, tail, head), the grid geometry, which no lambda
    changes: the (V, 2) grid point (i, j) of every vertex; per edge the
    lesser (i, j) of its ends and its (|di|, |dj|), each (E, 2), a grid
    step spanning (1, 0) or (0, 1); and the half-edges tail -> head of
    every edge both ways, sorted stably by tail."""
    at = np.argwhere(mesh.grid >= 0)
    ij = np.zeros((len(mesh.u), 2), dtype=int)
    ij[mesh.grid[tuple(at.T)]] = at
    p, q = ij[mesh.edge_ends].transpose(1, 0, 2)
    tail, head = np.concatenate([mesh.edge_ends, mesh.edge_ends[:, ::-1]]).T
    order = np.argsort(tail, kind="stable")
    return ij, np.minimum(p, q), np.abs(q - p), tail[order], head[order]


def _grid_path_within(mesh, grid_edges, a, b, limit):
    """True where a grid L-path from vertex a[k] to vertex b[k], along a's
    row and then b's column or the other way round, is at most
    limit (1 - 1e-9) long; grid_edges is _grid_edges(mesh).  Any path
    bounds the graph distance from above, so there a[k] and b[k] are
    within limit on the edge graph.

    Path lengths are differences of prefix sums along the grid lines, and
    the 1e-9 slack covers their rounding.  A path that uses a missing grid
    edge, or one longer than limit, is blocked: keeping long edges out of
    the prefix sums keeps their rounding from swamping the differences.
    """
    ij, lo, span, _, _ = grid_edges
    # steps[e][i, j] is the length of the grid edge from (i, j) to
    # (i + 1, j) for e = 0, or to (i, j + 1) for e = 1; inf where missing
    steps = np.full((2,) + mesh.grid.shape, np.inf)
    unit = span.sum(axis=1) == 1
    lo = lo[unit]
    steps[span[unit, 1], lo[:, 0], lo[:, 1]] = mesh.edge_lengths[unit]

    # the grid lines of each axis as [line, position]: steps along i run
    # down columns, steps along j along rows; per line, the usable length
    # and the blocked count of the steps before each position
    prefix = []
    for lines in (steps[0].T, steps[1]):
        ok = lines <= limit
        both = np.stack([np.where(ok, lines, 0.0), ~ok])
        prefix.append(np.cumsum(both, axis=2) - both)

    def segment(e, line, start, stop):
        sums = prefix[e]
        length, blocked = np.abs(sums[:, line, stop] - sums[:, line, start])
        return np.where(blocked > 0, np.inf, length)

    (ia, ja), (ib, jb) = ij[a].T, ij[b].T
    along_row = segment(1, ia, ja, jb) + segment(0, jb, ia, ib)
    along_column = segment(0, ja, ia, ib) + segment(1, ib, ja, jb)
    return np.minimum(along_row, along_column) <= limit * (1.0 - 1e-9)


def _grid_gap_bound(mesh, grid_edges, a, b, cutoff):
    """A lower bound on the edge-graph distance from vertex a[k] to b[k]
    and to each of b[k]'s edge neighbours, the goals of a search for b[k]
    (_graph_distance): where it is above cutoff / (1 - 1e-9), a search
    from a[k] stopped at cutoff settles none of them and leaves b[k] at
    inf.  grid_edges is _grid_edges(mesh).

    A path from grid point (i, j) to (i', j') crosses every gap between
    rows i and i' and every gap between columns j and j', each on an edge
    of its own, so it is at least as long as the sum of the gaps' least
    crossings.  An edge that crosses k gaps counts its length / k in each
    (k = 1 for a grid step).  The bound is a difference of prefix sums per
    axis, and the 1e-9 slack covers their rounding.  A gap's least
    crossing is capped at 2 cutoff, which alone is still beyond cutoff:
    that keeps a gap no edge crosses (inf) and very long edges out of the
    prefix sums.  nan, which no search relaxes, counts as no edge.
    """
    ij, lo, span, tail, head = grid_edges
    share = mesh.edge_lengths / np.maximum(span.sum(axis=1), 1)
    prefix = []
    for axis, n in enumerate(mesh.grid.shape):
        # least[g] is the least crossing of the gap between lines g and
        # g + 1; prefix[x] sums least[:x]
        least = np.full(n, np.inf)
        count = span[:, axis]
        np.fmin.at(least, _ranges(lo[:, axis], count), np.repeat(share, count))
        sums = np.zeros(n)
        np.cumsum(np.fmin(least[:-1], 2.0 * cutoff), out=sums[1:])
        prefix.append(sums)

    def bound(x, y):
        (ix, jx), (iy, jy) = ij[x].T, ij[y].T
        rows, columns = prefix
        return np.abs(rows[iy] - rows[ix]) + np.abs(columns[jy] - columns[jx])

    # the goal set of b[k]: b[k] itself and the heads of its half-edges
    start = np.searchsorted(tail, b)
    count = np.searchsorted(tail, b, side="right") - start
    k = np.repeat(np.arange(len(b)), count)
    least = bound(a, b)
    np.minimum.at(least, k, bound(a[k], head[_ranges(start, count)]))
    return least


def _graph_distance(graph, source, targets, cutoff):
    """A* on a _csr_graph from source toward the targets, stopped once
    every target is settled or the smallest heap key exceeds cutoff;
    returns the targets' distances.

    The goal set is the targets and their neighbours, and the heap key of
    a vertex v reached at distance d is d + h(v), with h(v) = (1 - 1e-9)
    times the least Euclidean distance from v to the goal set.  Every edge
    is at least as long as its chord (_assemble_mesh), so h is a lower
    bound on the distance left to any goal (admissible) and falls along an
    edge by at most the edge's length (consistent): keys are popped in
    order, a popped vertex is settled, and with h = 0 this is Dijkstra.
    The 1e-9 slack keeps both properties safe from rounding.

    A settled target's distance is final.  An unsettled one holds the
    least d(v) + length(v, b) over its settled neighbours v (inf if none),
    which is what Dijkstra run to exhaustion with the same cutoff holds:
    each neighbour is a goal, so h(v) = 0, and it is settled exactly when
    d(v) is within the cutoff.
    """
    ptr, nbr, length, xyz = graph
    goals = set(targets)
    for t in targets:
        goals.update(nbr[ptr[t]:ptr[t + 1]])
    # least squared distance to the goals, one goal at a time rather than
    # one (V, goals, 3) broadcast
    nearest = np.full(len(xyz), np.inf)
    diff = np.empty_like(xyz)
    for g in goals:
        np.subtract(xyz, xyz[g], out=diff)
        np.minimum(nearest, np.vecdot(diff, diff), out=nearest)
    h = ((1.0 - 1e-9) * np.sqrt(nearest)).tolist()

    dist = {source: 0.0}
    pending = set(targets)
    heap = [(h[source], 0.0, source)]
    while pending and heap and heap[0][0] <= cutoff:
        _, d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        pending.discard(v)
        if not pending:
            break
        for k in range(ptr[v], ptr[v + 1]):
            w = nbr[k]
            nd = d + length[k]
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd + h[w], nd, w))
    return [dist.get(t, math.inf) for t in targets]


def default_thresholds(mesh):
    """delta_ext = 2% of the bounding-box diagonal, delta_int = 20x that."""
    d_ext = 0.02 * mesh.bounding_box_diagonal()
    return d_ext, 20.0 * d_ext


def _thresholds(mesh, delta_ext, delta_int):
    """(delta_ext, effective delta_int) of a probe of mesh: the defaults
    fill in a missing threshold, and both must be finite and positive,
    the largest coordinate |xyz| below 2^52 delta_ext, delta_int above
    twice the longest edge, and INTRINSIC_SLACK * delta_int finite."""
    if delta_ext is None or delta_int is None:
        d_ext_default, d_int_default = default_thresholds(mesh)
        delta_ext = d_ext_default if delta_ext is None else delta_ext
        delta_int = d_int_default if delta_int is None else delta_int
    for name, value in (("delta_ext", delta_ext), ("delta_int", delta_int)):
        if not (math.isfinite(value) and value > 0):
            raise ThresholdOrder(
                f"{name} = {value:.3g} must be a finite positive length"
            )
    # the spatial hash's cube keys floor(xyz / delta_ext) are exact
    # integers only below 2^52
    extent = float(np.abs(mesh.xyz).max(initial=0.0))
    if extent >= 2.0 ** 52 * delta_ext:
        raise ThresholdOrder(
            f"delta_ext = {delta_ext:.3g} is too small for the mesh's extent"
            f" max |xyz| = {extent:.3g}: their ratio must stay below 2^52"
        )
    max_edge = mesh.max_edge_length()
    if delta_int <= 2.0 * max_edge:
        raise ThresholdOrder(
            f"delta_int = {delta_int:.3g} must exceed twice the max edge"
            f" length {max_edge:.3g}; refine the mesh or raise the threshold"
        )
    # an infinite effective threshold would pass inf into the grid bounds'
    # prefix sums, whose differences are then inf - inf
    effective = INTRINSIC_SLACK * delta_int
    if not math.isfinite(effective):
        raise ThresholdOrder(
            f"delta_int = {delta_int:.3g} is too large: {INTRINSIC_SLACK}"
            " times it, the effective threshold, is not a finite length"
        )
    return delta_ext, effective


def _far_pairs(mesh, delta_ext, eff_int, grid_edges=None):
    """Yield (a, b, extrinsic, intrinsic) for every candidate pair closer
    than delta_ext in space and farther than eff_int on the edge graph, one
    source a at a time, in candidate order; grid_edges is _grid_edges(mesh).

    Two grid bounds decide most candidates unsearched: one that a grid
    path shows to be within eff_int (_grid_path_within) is dropped, and
    one that the grid gaps show to be beyond the search's cutoff
    (_grid_gap_bound) is far at intrinsic distance inf, the distance the
    search would give it.  _graph_distance searches the rest, on a graph
    built for the first of them.
    """
    candidates = _spatial_hash_pairs(mesh.xyz, delta_ext)
    if not candidates:
        return
    a, b, _ = np.array(candidates).T
    a, b = a.astype(int), b.astype(int)
    if grid_edges is None:
        grid_edges = _grid_edges(mesh)
    rest = np.flatnonzero(~_grid_path_within(mesh, grid_edges, a, b, eff_int))
    if not rest.size:
        return
    cutoff = eff_int * 1.01
    bound = _grid_gap_bound(mesh, grid_edges, a[rest], b[rest], cutoff)
    beyond = bound * (1.0 - 1e-9) > cutoff
    kept = zip([candidates[k] for k in rest.tolist()], beyond.tolist())
    graph = None
    # candidates are sorted by (a, b), so each source's targets are a run
    for a, run in itertools.groupby(kept, key=lambda t: t[0][0]):
        run = list(run)
        targets = [b for (_, b, _), far in run if not far]
        searched = iter(())
        if targets:
            if graph is None:
                graph = _csr_graph(mesh)
            searched = iter(_graph_distance(graph, a, targets, cutoff))
        for (_, b, d), far in run:
            intrinsic = math.inf if far else next(searched)
            if intrinsic > eff_int:
                yield a, b, d, float(intrinsic)


def probe_self_intersection(mesh, delta_ext=None, delta_int=None):
    """Near-pair probe: vertices extrinsically close but intrinsically far.

    A reported pair witnesses (at mesh resolution) a self-intersection; an
    empty report only means none was found at this resolution.
    """
    delta_ext, eff_int = _thresholds(mesh, delta_ext, delta_int)
    # mirror-image pairs tie in exact arithmetic: the indices break ties
    pairs = sorted(
        _far_pairs(mesh, delta_ext, eff_int),
        key=lambda t: (t[2], t[0], t[1]),
    )
    return ProbeReport(
        pairs=pairs,
        delta_ext=delta_ext,
        delta_int=eff_int,
        embedded=not pairs,
    )


@record
class SweepResult:
    table: list  # of (lambda, embedded, max period residual)
    bracket: tuple = None  # (lambda_lo, lambda_hi) or None


def lambda_sweep(
    data,
    lambdas,
    spec,
    basis=None,
    delta_ext=None,
    delta_int=None,
    tol=1e-8,
):
    """Probe lopez_ros(data, lam) over a grid of lambdas and bracket any
    embedded/non-embedded transition by bisection, to a relative width of
    BRACKET_REL.

    Requires finite positive lambdas, checked before any quadrature, and
    vertical flux (closure must survive the deformation); period residuals
    are re-verified per lambda when a cycle basis is given.  The quadrature
    runs once, for data: its cycle triples, at min(tol, 1e-10), which give
    the flux test and which every lambda rescales (lopez_ros_triples), and
    its mesh integrals.
    """
    lambdas = sorted(checked_lambda(lam) for lam in lambdas)
    triples = None
    if basis is not None:
        triples = period_triples(data, basis.cycles, min(tol, 1e-10))
        vf = vertical_flux_report(basis.labels, triples)
        if not (vf.vertical or vf.vacuous):
            raise NotVerticalFlux(
                f"horizontal flux magnitudes {vf.horizontal_magnitudes}"
            )
    integrals = _mesh_integrals(data, spec)
    grid_edges = None

    def verdict(lam):
        nonlocal grid_edges
        deformed = lopez_ros(data, lam)
        resid = 0.0
        if triples is not None:
            scaled = lopez_ros_triples(triples, lam)
            resid = triples_report(basis.labels, scaled, tol).max_residual
        m = _assemble_mesh(integrals, lam, deformed.label)
        if grid_edges is None:
            grid_edges = _grid_edges(m)
        # the verdict needs one far pair, not the list
        far = _far_pairs(m, *_thresholds(m, delta_ext, delta_int), grid_edges)
        return next(far, None) is None, resid

    table = []
    for lam in lambdas:
        emb, resid = verdict(lam)
        table.append((lam, emb, resid))

    bracket = None
    for (l0, e0, _), (l1, e1, _) in zip(table, table[1:]):
        if e0 != e1:
            lo, hi = l0, l1
            emb_lo = e0
            while hi - lo > BRACKET_REL * lo:
                mid = 0.5 * (lo + hi)
                emb_mid, _ = verdict(mid)
                if emb_mid == emb_lo:
                    lo = mid
                else:
                    hi = mid
            bracket = (lo, hi)
            break
    return SweepResult(table=table, bracket=bracket)
