"""Mesh discretization, OBJ export, and the embeddedness probe.

Vertices are immersed once each by cumulative integration over a spanning
tree of grid edges, so an n x m mesh costs O(nm) quadratures.  The
self-intersection probe pairs a spatial hash (extrinsic nearness) with
shortest paths on the mesh edge graph (intrinsic separation) — the
discretized form of a near-pair with large intrinsic distance.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DisconnectedSampling,
    NotVerticalFlux,
    PoleAt,
    ThresholdOrder,
)
from .paths import Line, PathSpec, polyline
from .surface import (
    conformal_factor,
    gauss_normal,
    immerse,
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


def _edge_arclength(data, a, b):
    """Intrinsic length of the immersed straight edge a -> b (8-pt Gauss)."""
    nodes, weights = _GK_T
    total = 0.0
    h = abs(b - a)
    for t, w in zip(nodes, weights):
        u = a + 0.5 * (t + 1.0) * (b - a)
        lam = conformal_factor(data, u)
        if not math.isfinite(lam):
            return math.inf
        total += w * lam
    return 0.5 * h * total


def build_mesh(data, spec, tol=1e-10):
    """Discretize the immersion over the sampling rectangle.

    The basepoint connects to the nearest included grid vertex by the route
    policy; all other vertices follow by cumulative integration along grid
    edges (breadth-first spanning tree).
    """
    mask = spec.inclusion_mask()
    _check_connected(mask)

    def edge_delta(a, b):
        vals = recombine(*period_triple(data, polyline([a, b]), tol))
        return np.array([v.real for v in vals])

    index = -np.ones(mask.shape, dtype=int)
    verts = []
    order = [
        (i, j) for i in range(spec.nx) for j in range(spec.ny) if mask[i, j]
    ]
    for i, j in order:
        index[i, j] = len(verts)
        verts.append(spec.grid_point(i, j))

    # root = included vertex nearest the basepoint, immersed via the route
    root_ij = min(order, key=lambda ij: abs(spec.grid_point(*ij) - data.basepoint))
    root_u = spec.grid_point(*root_ij)
    positions = [None] * len(verts)
    if abs(root_u - data.basepoint) < 1e-13:
        positions[index[root_ij]] = np.zeros(3)
    else:
        route = straight_route(data, root_u)
        positions[index[root_ij]] = immerse(data, root_u, route=route, tol=tol)

    seen = {root_ij}
    q = deque([root_ij])
    tree_edges = []
    while q:
        i, j = q.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if (
                0 <= a < spec.nx and 0 <= b < spec.ny
                and mask[a, b] and (a, b) not in seen
            ):
                seen.add((a, b))
                tree_edges.append(((i, j), (a, b)))
                q.append((a, b))
    for (i, j), (a, b) in tree_edges:
        u0, u1 = spec.grid_point(i, j), spec.grid_point(a, b)
        positions[index[a, b]] = positions[index[i, j]] + edge_delta(u0, u1)

    vertices = []
    for k, u in enumerate(verts):
        vertices.append((u, positions[k], gauss_normal(data, u)))

    faces = []
    for i in range(spec.nx - 1):
        for j in range(spec.ny - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if not all(mask[ij] for ij in corners):
                continue
            a, b, c, d = (index[ij] for ij in corners)
            faces.append((a, b, c))
            faces.append((a, c, d))

    edges = []
    for i in range(spec.nx):
        for j in range(spec.ny):
            if not mask[i, j]:
                continue
            for di, dj in ((1, 0), (0, 1)):
                a, b = i + di, j + dj
                if a < spec.nx and b < spec.ny and mask[a, b]:
                    u0, u1 = spec.grid_point(i, j), spec.grid_point(a, b)
                    length = _edge_arclength(data, u0, u1)
                    chord = float(
                        np.linalg.norm(
                            positions[index[a, b]] - positions[index[i, j]]
                        )
                    )
                    # intrinsic arc length can never undercut the chord
                    edges.append((index[i, j], index[a, b], max(length, chord)))

    return SurfaceMesh(
        vertices=vertices, faces=faces, edges=edges, label=data.label
    )


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
    keys = np.floor(positions / cell).astype(int)
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


def _graph_distance(n_vertices, adjacency, source, cutoff):
    """Dijkstra from source, early exit beyond cutoff; returns dist array."""
    dist = np.full(n_vertices, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v] or d > cutoff:
            continue
        for w, length in adjacency[v]:
            nd = d + length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


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

    pairs = []
    dist_cache = {}
    for a, b, d in candidates:
        if a not in dist_cache:
            dist_cache[a] = _graph_distance(
                len(mesh.vertices), adjacency, a, eff_int * 1.01
            )
        intrinsic = dist_cache[a][b]
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
    residuals are re-verified per lambda when a cycle basis is given.
    """
    if basis is not None:
        vf = is_vertical_flux(data, basis)
        if not (vf.vertical or vf.vacuous):
            raise NotVerticalFlux(
                f"horizontal flux magnitudes {vf.horizontal_magnitudes}"
            )

    def verdict(lam):
        deformed = lopez_ros(data, lam)
        resid = 0.0
        if basis is not None:
            resid = period_report(deformed, basis, tol=tol).max_residual
        m = build_mesh(deformed, spec)
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
