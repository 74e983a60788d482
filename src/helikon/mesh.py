"""Mesh discretization, OBJ export, and the embeddedness probe.

Vertices are immersed once each by cumulative integration over a spanning
tree of grid edges, so an n x m mesh costs O(nm) quadratures; a lambda
sweep pays them once and recombines them for every lambda.  The
self-intersection probe pairs a spatial hash (extrinsic nearness) with
shortest paths on the mesh edge graph (intrinsic separation) — the
discretized form of a near-pair with large intrinsic distance.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DisconnectedSampling,
    NotVerticalFlux,
    PoleAt,
    ThresholdOrder,
)
from .expr import eval_expr
from .paths import Line, PathSpec, polyline
from .surface import (
    is_vertical_flux,
    lopez_ros,
    period_report,
    period_triple,
    recombine,
    straight_route,
)

# graph shortest paths overestimate geodesics; absorb mesh quality by
# widening the user's intrinsic threshold by this documented factor
INTRINSIC_SLACK = 1.5


@dataclass(frozen=True)
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

    def included(self, u):
        return all(abs(u - complex(c)) > r for c, r in self.exclusions)

    def inclusion_mask(self):
        mask = np.zeros((self.nx, self.ny), dtype=bool)
        for i in range(self.nx):
            for j in range(self.ny):
                mask[i, j] = self.included(self.grid_point(i, j))
        return mask


def _check_connected(mask):
    """Flood fill over the included grid vertices (4-neighborhood)."""
    nx, ny = mask.shape
    seeds = np.argwhere(mask)
    if seeds.size == 0:
        raise DisconnectedSampling("every grid vertex is excluded")
    seen = np.zeros_like(mask)
    q = deque([tuple(seeds[0])])
    seen[tuple(seeds[0])] = True
    while q:
        i, j = q.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < nx and 0 <= b < ny and mask[a, b] and not seen[a, b]:
                seen[a, b] = True
                q.append((a, b))
    if seen.sum() != mask.sum():
        raise DisconnectedSampling(
            f"exclusion disks split the region: {int(mask.sum() - seen.sum())}"
            " vertices unreachable"
        )


@dataclass
class SurfaceMesh:
    vertices: list  # of (u: complex, position: ndarray(3), normal: ndarray(3))
    faces: list  # of (i, j, k) vertex indices
    edges: list  # of (i, j, intrinsic length)
    label: str = ""

    def positions(self):
        return np.array([p for _, p, _ in self.vertices])

    def bounding_box_diagonal(self):
        pos = self.positions()
        return float(np.linalg.norm(pos.max(axis=0) - pos.min(axis=0)))

    def max_edge_length(self):
        return max((l for _, _, l in self.edges), default=0.0)


_GK_T = np.polynomial.legendre.leggauss(8)


def _edge_gauss_sums(data, a, b):
    """(A, B) = 8-point Gauss sums of |g| |dh| and |dh| / |g| on a -> b.

    The edge's intrinsic length under lopez_ros(data, lam) is
    |b - a| (lam A + B / lam) / 4; A is inf where that length is infinite
    (a pole of g, or a zero of g where dh does not vanish).
    """
    nodes, weights = _GK_T
    sum_a = sum_b = 0.0
    for t, w in zip(nodes, weights):
        u = a + 0.5 * (t + 1.0) * (b - a)
        h = abs(eval_expr(data.dh.coeff, u))
        try:
            m = abs(eval_expr(data.g, u))
        except PoleAt:
            return math.inf, 0.0
        if m == 0:
            if h > 0:
                return math.inf, 0.0
            continue
        sum_a += w * m * h
        sum_b += w * h / m
    return sum_a, sum_b


class _MeshIntegrals(NamedTuple):
    """The lambda-independent part of a mesh: one pass of quadrature.

    Row 0 of triples is the period triple of the route from the basepoint to
    the root vertex (zero when the root is the basepoint); row k > 0 is that
    of the spanning-tree edge parent[k] -> child[k], in breadth-first order.
    """

    verts: list  # of u per vertex
    faces: list
    child: list
    parent: list
    triples: np.ndarray  # complex, one (P+, P-, P3) row per tree edge
    g_values: np.ndarray  # complex g per vertex, nan at poles
    edges: np.ndarray  # (i, j) vertex index pairs of the grid edges
    edge_du: np.ndarray  # |u_j - u_i|
    edge_sums: np.ndarray  # (A, B) of _edge_gauss_sums per grid edge


def _mesh_integrals(data, spec, tol=1e-10):
    """Every quadrature and expression evaluation a mesh of data needs.

    The root is the included vertex nearest the basepoint, reached by the
    route policy; the other vertices hang off a breadth-first spanning tree
    of grid edges.
    """
    mask = spec.inclusion_mask()
    _check_connected(mask)

    index = -np.ones(mask.shape, dtype=int)
    verts = []
    order = [
        (i, j) for i in range(spec.nx) for j in range(spec.ny) if mask[i, j]
    ]
    for i, j in order:
        index[i, j] = len(verts)
        verts.append(spec.grid_point(i, j))

    root_ij = min(order, key=lambda ij: abs(spec.grid_point(*ij) - data.basepoint))
    root_u = spec.grid_point(*root_ij)
    if abs(root_u - data.basepoint) < 1e-13:
        triples = [(0j, 0j, 0j)]
    else:
        route = straight_route(data, root_u)
        triples = [period_triple(data, route, tol)]
    child, parent = [index[root_ij]], [-1]

    seen = {root_ij}
    q = deque([root_ij])
    while q:
        i, j = q.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if (
                0 <= a < spec.nx and 0 <= b < spec.ny
                and mask[a, b] and (a, b) not in seen
            ):
                seen.add((a, b))
                q.append((a, b))
                child.append(index[a, b])
                parent.append(index[i, j])
    for k in range(1, len(child)):
        path = polyline([verts[parent[k]], verts[child[k]]])
        triples.append(period_triple(data, path, tol))

    g_values = np.empty(len(verts), dtype=complex)
    for k, u in enumerate(verts):
        try:
            g_values[k] = eval_expr(data.g, u)
        except PoleAt:
            g_values[k] = complex(math.nan, math.nan)

    faces = []
    for i in range(spec.nx - 1):
        for j in range(spec.ny - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if not all(mask[ij] for ij in corners):
                continue
            a, b, c, d = (index[ij] for ij in corners)
            faces.append((a, b, c))
            faces.append((a, c, d))

    edges, edge_du, edge_sums = [], [], []
    for i in range(spec.nx):
        for j in range(spec.ny):
            if not mask[i, j]:
                continue
            for di, dj in ((1, 0), (0, 1)):
                a, b = i + di, j + dj
                if a < spec.nx and b < spec.ny and mask[a, b]:
                    u0, u1 = spec.grid_point(i, j), spec.grid_point(a, b)
                    edges.append((index[i, j], index[a, b]))
                    edge_du.append(abs(u1 - u0))
                    edge_sums.append(_edge_gauss_sums(data, u0, u1))

    return _MeshIntegrals(
        verts=verts,
        faces=faces,
        child=child,
        parent=parent,
        triples=np.array(triples, dtype=complex).reshape(-1, 3),
        g_values=g_values,
        edges=np.array(edges, dtype=int).reshape(-1, 2),
        edge_du=np.array(edge_du, dtype=float),
        edge_sums=np.array(edge_sums, dtype=float).reshape(-1, 2),
    )


def _gauss_normals(g_values):
    """surface.gauss_normal for an array of g values (nan marks a pole)."""
    m2 = np.abs(g_values) ** 2
    normals = np.zeros((len(g_values), 3))
    normals[:, 2] = 1.0
    ok = np.isfinite(m2) & (m2 <= 1e16)
    g = g_values[ok]
    normals[ok] = np.stack(
        [2.0 * g.real, 2.0 * g.imag, m2[ok] - 1.0], axis=1
    ) / (m2[ok] + 1.0)[:, None]
    return normals


def _assemble_mesh(integrals, lam, label):
    """The mesh of lopez_ros(data, lam) from data's _mesh_integrals.

    The deformation g -> lam g scales the period forms (g dh, dh/g, dh) by
    (lam, 1/lam, 1) and the edge Gauss sums (A, B) likewise, so no quadrature
    is repeated (Lopez & Ros, J. Differential Geom. 33, 1991).
    """
    triples, g_values = integrals.triples, integrals.g_values
    sum_a, sum_b = integrals.edge_sums.T
    if lam != 1.0:
        triples = triples.copy()
        triples[:, 0] *= lam
        triples[:, 1] /= lam
        g_values = complex(lam) * g_values
    deltas = np.array(recombine(*triples.T)).real.T

    positions = np.empty((len(integrals.verts), 3))
    child, parent = integrals.child, integrals.parent
    positions[child[0]] = deltas[0]
    for k in range(1, len(child)):
        positions[child[k]] = positions[parent[k]] + deltas[k]

    normals = _gauss_normals(g_values)
    vertices = list(zip(integrals.verts, positions, normals))

    ia, ib = integrals.edges.T
    length = 0.25 * integrals.edge_du * (lam * sum_a + sum_b / lam)
    chord = np.linalg.norm(positions[ib] - positions[ia], axis=1)
    # intrinsic arc length can never undercut the chord
    length = np.maximum(length, chord)
    edges = list(zip(ia.tolist(), ib.tolist(), length.tolist()))

    return SurfaceMesh(
        vertices=vertices,
        faces=integrals.faces,
        edges=edges,
        label=label,
    )


def build_mesh(data, spec, tol=1e-10):
    """Discretize the immersion over the sampling rectangle.

    The basepoint connects to the nearest included grid vertex by the route
    policy; all other vertices follow by cumulative integration along grid
    edges (breadth-first spanning tree).
    """
    return _assemble_mesh(_mesh_integrals(data, spec, tol), 1.0, data.label)


def export_mesh(mesh, fmt="obj"):
    """Serialize the mesh; OBJ with v/vn/f records, 9 significant digits."""
    if fmt.lower() != "obj":
        raise ValueError(f"unsupported mesh format: {fmt}")
    if not mesh.vertices:
        raise ValueError("refusing to export an empty mesh")
    lines = []
    for _, p, _ in mesh.vertices:
        lines.append("v %.9g %.9g %.9g" % (p[0], p[1], p[2]))
    for _, _, n in mesh.vertices:
        lines.append("vn %.9g %.9g %.9g" % (n[0], n[1], n[2]))
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1}//{a + 1} {b + 1}//{b + 1} {c + 1}//{c + 1}")
    return ("\n".join(lines) + "\n").encode("ascii")


@dataclass
class ProbeReport:
    pairs: list  # of (index a, index b, extrinsic dist, intrinsic dist)
    delta_ext: float
    delta_int: float  # effective (slack already applied)
    embedded: bool


def _spatial_hash_pairs(positions, cell):
    """Candidate index pairs at extrinsic distance < cell."""
    grid = {}
    keys = np.floor(positions / cell).astype(int).tolist()
    for idx, key in enumerate(map(tuple, keys)):
        grid.setdefault(key, []).append(idx)
    out = []
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
    ]
    for key, members in grid.items():
        for dx, dy, dz in offsets:
            other = (key[0] + dx, key[1] + dy, key[2] + dz)
            if other < key or other not in grid:
                continue
            targets = grid[other]
            for a in members:
                for b in targets:
                    if (other == key and b <= a):
                        continue
                    d = float(np.linalg.norm(positions[a] - positions[b]))
                    if d < cell:
                        out.append((a, b, d))
    return out


def _graph_distance(adjacency, source, targets, cutoff):
    """Dijkstra from source, stopped once every target is settled or the
    smallest heap entry exceeds cutoff; returns the targets' distances.

    A settled target's distance is final.  An unsettled one keeps its
    tentative value (inf if never reached), which is what a search run to
    exhaustion with the same cutoff would hold: every later pop is above
    the cutoff or stale, so it relaxes nothing.
    """
    dist = {source: 0.0}
    pending = set(targets)
    heap = [(0.0, source)]
    while pending and heap and heap[0][0] <= cutoff:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        pending.discard(v)
        if not pending:
            break
        for w, length in adjacency[v]:
            nd = d + length
            if nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return [dist.get(t, math.inf) for t in targets]


def default_thresholds(mesh):
    """delta_ext = 2% of the bounding-box diagonal, delta_int = 20x that."""
    d_ext = 0.02 * mesh.bounding_box_diagonal()
    return d_ext, 20.0 * d_ext


def probe_self_intersection(mesh, delta_ext=None, delta_int=None):
    """Near-pair probe: vertices extrinsically close but intrinsically far.

    A reported pair witnesses (at mesh resolution) a self-intersection; an
    empty report only means none was found at this resolution.
    """
    if delta_ext is None or delta_int is None:
        d_ext_default, d_int_default = default_thresholds(mesh)
        delta_ext = d_ext_default if delta_ext is None else delta_ext
        delta_int = d_int_default if delta_int is None else delta_int
    max_edge = mesh.max_edge_length()
    if delta_int <= 2.0 * max_edge:
        raise ThresholdOrder(
            f"delta_int = {delta_int:.3g} must exceed twice the max edge"
            f" length {max_edge:.3g}; refine the mesh or raise the threshold"
        )
    eff_int = INTRINSIC_SLACK * delta_int

    positions = mesh.positions()
    candidates = _spatial_hash_pairs(positions, delta_ext)
    adjacency = [[] for _ in mesh.vertices]
    for a, b, length in mesh.edges:
        adjacency[a].append((b, length))
        adjacency[b].append((a, length))

    targets = {}
    for a, b, _ in candidates:
        targets.setdefault(a, []).append(b)
    dist_to = {
        a: dict(zip(bs, _graph_distance(adjacency, a, bs, eff_int * 1.01)))
        for a, bs in targets.items()
    }

    pairs = []
    for a, b, d in candidates:
        intrinsic = dist_to[a][b]
        if intrinsic > eff_int:
            pairs.append((a, b, d, float(intrinsic)))
    pairs.sort(key=lambda t: t[2])
    return ProbeReport(
        pairs=pairs,
        delta_ext=delta_ext,
        delta_int=eff_int,
        embedded=not pairs,
    )


@dataclass
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
    bracket_rel=0.01,
):
    """Probe lopez_ros(data, lam) over a grid of lambdas and bracket any
    embedded/non-embedded transition by bisection.

    Requires vertical flux (closure must survive the deformation); period
    residuals are re-verified per lambda when a cycle basis is given.  The
    mesh quadrature runs once, for data; every lambda's mesh is recombined
    from it.
    """
    if basis is not None:
        vf = is_vertical_flux(data, basis)
        if not (vf.vertical or vf.vacuous):
            raise NotVerticalFlux(
                f"horizontal flux magnitudes {vf.horizontal_magnitudes}"
            )

    integrals = None

    def verdict(lam):
        nonlocal integrals
        deformed = lopez_ros(data, lam)
        resid = 0.0
        if basis is not None:
            resid = period_report(deformed, basis, tol=tol).max_residual
        if integrals is None:
            integrals = _mesh_integrals(data, spec)
        m = _assemble_mesh(integrals, lam, deformed.label)
        report = probe_self_intersection(m, delta_ext, delta_int)
        return report.embedded, resid

    lambdas = sorted(float(l) for l in lambdas)
    table = []
    for lam in lambdas:
        emb, resid = verdict(lam)
        table.append((lam, emb, resid))

    bracket = None
    for (l0, e0, _), (l1, e1, _) in zip(table, table[1:]):
        if e0 != e1:
            lo, hi = l0, l1
            emb_lo = e0
            while hi - lo > bracket_rel * lo:
                mid = 0.5 * (lo + hi)
                emb_mid, _ = verdict(mid)
                if emb_mid == emb_lo:
                    lo = mid
                else:
                    hi = mid
            bracket = (lo, hi)
            break
    return SweepResult(table=table, bracket=bracket)
