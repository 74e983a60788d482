"""Mesh construction, OBJ export, the embeddedness probe, and the sweep."""

import dataclasses
import heapq
import math
import warnings

import numpy as np
import pytest

from helikon.errors import (
    DisconnectedSampling,
    NotVerticalFlux,
    PathThroughPole,
    ThresholdOrder,
)
from helikon.expr import (
    FormExpr,
    Plane,
    constant,
    coordinate,
    parse_expr,
)
from helikon import expr as expr_module
from helikon import mesh as mesh_module
from helikon import surface as surface_module
from helikon.mesh import (
    INTRINSIC_SLACK,
    SamplingSpec,
    SurfaceMesh,
    _assemble_mesh,
    _csr_graph,
    _far_pairs,
    _graph_distance,
    _grid_edges,
    _grid_gap_bound,
    _grid_path_within,
    _mesh_integrals,
    _spatial_hash_pairs,
    build_mesh,
    default_thresholds,
    export_mesh,
    lambda_sweep,
    probe_self_intersection,
)
from helikon.paths import circle
from helikon.surface import (
    CycleBasis,
    WeierstrassData,
    lopez_ros,
    lopez_ros_triples,
    period_triples,
    recombine,
    triples_report,
)

from references import breadth_first_tree, conformal_factor, gauss_normal

PLANE = Plane()
PUNCTURED = Plane((0,))


def helicoid():
    return WeierstrassData(
        g=parse_expr("exp(i*u)", PLANE),
        dh=parse_expr("1 du", PLANE),
        basepoint=0.0,
        label="helicoid",
    )


def catenoid():
    return WeierstrassData(
        g=parse_expr("u", PUNCTURED),
        dh=parse_expr("1/u du", PUNCTURED),
        basepoint=1.0,
        label="catenoid",
    )


def enneper():
    return WeierstrassData(
        g=parse_expr("u", PLANE),
        dh=parse_expr("u du", PLANE),
        basepoint=0.0,
        label="enneper",
    )


def catenoid_spec(n=30):
    return SamplingSpec(-2, 2, -2, 2, nx=n, ny=n, exclusions=((0, 0.45),))


def helicoid_exact(u):
    x, y = u.real, u.imag
    return np.array(
        [math.sin(x) * math.sinh(y), -math.cos(x) * math.sinh(y), x]
    )


class TestSamplingSpec:
    def test_empty_rectangle(self):
        with pytest.raises(ValueError):
            SamplingSpec(1.0, 1.0, 0.0, 1.0)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            SamplingSpec(0, 1, 0, 1, nx=0)

    def test_grid_corners(self):
        spec = SamplingSpec(-1, 1, -2, 2, nx=5, ny=9)
        assert spec.grid_point(0, 0) == complex(-1, -2)
        assert spec.grid_point(4, 8) == complex(1, 2)

    def test_exclusion_mask(self):
        spec = SamplingSpec(-1, 1, -1, 1, nx=3, ny=3, exclusions=((0, 0.5),))
        mask = spec.inclusion_mask()
        assert not mask[1, 1]  # center excluded
        assert mask[0, 0]


def reference_grid(spec):
    """Vertices, faces and grid edges of spec by loops over (i, j)."""
    nx, ny = spec.nx, spec.ny
    mask = np.zeros((nx, ny), dtype=bool)
    for i in range(nx):
        for j in range(ny):
            u = spec.grid_point(i, j)
            mask[i, j] = all(
                abs(u - complex(c)) > r for c, r in spec.exclusions
            )
    index, verts = {}, []
    for i in range(nx):
        for j in range(ny):
            if mask[i, j]:
                index[i, j] = len(verts)
                verts.append(spec.grid_point(i, j))
    faces = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
            if all(mask[ij] for ij in corners):
                a, b, c, d = (index[ij] for ij in corners)
                faces += [(a, b, c), (a, c, d)]
    edges = []
    for i in range(nx):
        for j in range(ny):
            for a, b in ((i + 1, j), (i, j + 1)):
                if mask[i, j] and a < nx and b < ny and mask[a, b]:
                    edges.append((index[i, j], index[a, b]))
    return mask, verts, faces, edges


class TestGridEnumeration:
    @pytest.mark.parametrize(
        "spec",
        [
            SamplingSpec(-2, 2, -1.5, 2.5, nx=23, ny=17,
                         exclusions=((0, 0.45), (1.2 + 1j, 0.3))),
            SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=7, ny=1),
        ],
        ids=["two-disks", "one-row"],
    )
    def test_matches_loops(self, spec):
        mask, verts, faces, edges = reference_grid(spec)
        assert np.array_equal(spec.inclusion_mask(), mask)
        got = _mesh_integrals(helicoid(), spec)
        assert got.verts.tolist() == verts
        assert got.faces == faces
        assert got.edges.tolist() == [list(e) for e in edges]
        assert np.array_equal(
            got.edge_du, [abs(verts[b] - verts[a]) for a, b in edges]
        )

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    def test_tree_walk_matches_loop(self, lam):
        # positions placed level by level equal the per-vertex walk of the
        # breadth-first tree, bit for bit
        spec = SamplingSpec(-2, 2, -1.5, 2.5, nx=23, ny=17,
                            exclusions=((0, 0.45), (1.2 + 1j, 0.3)))
        got = _mesh_integrals(helicoid(), spec)
        child, parent = got.child, got.parent
        ends = got.level_ends
        depth = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        assert depth[0] == 0
        where = {v: k for k, v in enumerate(child)}
        assert all(depth[k] == depth[where[parent[k]]] + 1
                   for k in range(1, len(child)))
        triples = got.triples.copy()
        triples[:, 0] *= lam
        triples[:, 1] /= lam
        deltas = np.array(recombine(*triples.T)).real.T
        positions = np.empty((len(got.verts), 3))
        positions[child[0]] = deltas[0]
        for k in range(1, len(child)):
            positions[child[k]] = positions[parent[k]] + deltas[k]
        mesh = _assemble_mesh(got, lam, "")
        assert np.array_equal(mesh.positions(), positions)

    @pytest.mark.parametrize(
        "spec",
        [
            SamplingSpec(-2, 2, -1.5, 2.5, nx=23, ny=17,
                         exclusions=((0, 0.45), (1.2 + 1j, 0.3))),
            SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=7, ny=1),
            SamplingSpec(0.0, 1.0, 0.0, 1.0, nx=1, ny=1),
        ],
        ids=["two-disks", "one-row", "one-vertex"],
    )
    def test_tree_matches_vertex_walk(self, spec):
        # the level-synchronous tree is the vertex-by-vertex breadth-first
        # walk: same children, parents and levels, in the same order
        data = helicoid()
        child, parent, depth = breadth_first_tree(spec, data.basepoint)
        got = _mesh_integrals(data, spec)
        assert got.child.tolist() == child
        assert got.parent.tolist() == parent
        assert got.level_ends.tolist() == np.cumsum(np.bincount(depth)).tolist()


class TestBuildMesh:
    def test_helicoid_vertices_closed_form(self):
        # 21x21 over [-pi, pi] x [-1, 1] puts pi/2 + i and the basepoint 0
        # exactly on the grid
        spec = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=21, ny=21)
        mesh = build_mesh(helicoid(), spec)
        assert len(mesh.vertices) == 441
        for u, p, _ in mesh.vertices:
            assert np.linalg.norm(p - helicoid_exact(u)) < 1e-8

    def test_single_vertex_grid(self):
        spec = SamplingSpec(0.0, 1.0, 0.0, 1.0, nx=1, ny=1)
        mesh = build_mesh(helicoid(), spec)
        assert len(mesh.vertices) == 1
        assert not mesh.faces and not mesh.edges

    def test_catenoid_annulus_height(self):
        # third coordinate of the catenoid is log|u| (basepoint at |u| = 1)
        mesh = build_mesh(catenoid(), catenoid_spec())
        for u, p, _ in mesh.vertices:
            assert abs(p[2] - math.log(abs(u))) < 1e-9

    def test_list_views(self):
        # vertices and edges are lists built from the arrays, with Python
        # scalars and ndarray(3) rows; they and positions() are read-only
        mesh = build_mesh(catenoid(), catenoid_spec(8))
        assert len(mesh.vertices) == len(mesh.u) > 0
        for k, (u, p, n) in enumerate(mesh.vertices):
            assert type(u) is complex and u == mesh.u[k]
            assert isinstance(p, np.ndarray) and p.shape == (3,)
            assert np.array_equal(p, mesh.xyz[k])
            assert np.array_equal(n, mesh.normals[k])
        assert len(mesh.edges) == len(mesh.edge_ends) > 0
        for k, (a, b, length) in enumerate(mesh.edges):
            assert type(a) is int and type(b) is int and type(length) is float
            assert [a, b] == mesh.edge_ends[k].tolist()
            assert length == mesh.edge_lengths[k]
        assert mesh.vertices is mesh.vertices and mesh.edges is mesh.edges
        with pytest.raises(AttributeError):
            mesh.vertices = []
        with pytest.raises(AttributeError):
            mesh.edges = []
        pos = mesh.positions()
        assert np.array_equal(pos, np.array([p for _, p, _ in mesh.vertices]))
        with pytest.raises(ValueError):
            pos[0, 0] = 1.0

    def test_intrinsic_length_dominates_chord(self):
        mesh = build_mesh(catenoid(), catenoid_spec(12))
        pos = mesh.positions()
        for a, b, length in mesh.edges:
            chord = float(np.linalg.norm(pos[a] - pos[b]))
            assert length >= chord - 1e-12

    def test_disconnected_sampling(self):
        # the disk severs the thin rectangle into left and right parts
        spec = SamplingSpec(
            -1, 1, -0.2, 0.2, nx=21, ny=5, exclusions=((0, 0.5),)
        )
        with pytest.raises(DisconnectedSampling):
            build_mesh(helicoid(), spec)

    def test_everything_excluded(self):
        spec = SamplingSpec(-1, 1, -1, 1, nx=5, ny=5, exclusions=((0, 9.0),))
        with pytest.raises(DisconnectedSampling):
            build_mesh(helicoid(), spec)


    def test_poles_off_the_tree(self):
        # g = 1/u + 1/(u - p) with dh = u (u - p) du: the period forms stay
        # regular, g has a pole at the vertex 0 and at p, a Gauss node of a
        # grid edge off the spanning tree
        spec = SamplingSpec(-1, 1, -1, 1, nx=5, ny=5)
        first = _mesh_integrals(enneper(), spec)
        tree = {frozenset(e) for e in zip(first.parent[1:], first.child[1:])}
        k = next(k for k, e in enumerate(first.edges.tolist())
                 if frozenset(e) not in tree)
        a, b = first.edges[k]
        u0, u1 = first.verts[a], first.verts[b]
        p = complex((u0 + mesh_module._GL_S * (u1 - u0))[3])
        u = coordinate(PLANE)
        data = WeierstrassData(
            g=constant(1, PLANE) / u + constant(1, PLANE) / (u - p),
            dh=FormExpr(u * (u - p)),
            basepoint=0.0,
        )
        mesh = build_mesh(data, spec)
        lengths = [length for _, _, length in mesh.edges]
        assert lengths[k] == math.inf
        assert all(math.isfinite(x) for i, x in enumerate(lengths) if i != k)
        origin = first.verts.tolist().index(0j)
        for v, (u, _, normal) in enumerate(mesh.vertices):
            if v == origin:
                assert normal.tolist() == [0.0, 0.0, 1.0]
            else:
                assert np.abs(normal - gauss_normal(data, u)).max() <= 1e-14

    def test_node_on_tree_edge_pole(self):
        # the middle Kronrod node of the tree edge 0 -> 0.5 is 0.25
        spec = SamplingSpec(0, 1, 0, 1, nx=3, ny=3)
        data = WeierstrassData(
            g=parse_expr("1/(u - 0.25)", PLANE),
            dh=parse_expr("1 du", PLANE),
            basepoint=0.0,
        )
        with pytest.raises(PathThroughPole):
            build_mesh(data, spec)

    def test_expression_evaluations_per_mesh(self, monkeypatch):
        # every quadrature and evaluation of a mesh runs in blocks: the
        # 48x48 catenoid, with about 4,300 grid edges, evaluates g and dh
        # in at most one call per 100 grid edges (g by paths.evaluate, which
        # calls the Expr, so through the expr module's eval_expr)
        calls = []
        for module in (expr_module, mesh_module, surface_module):
            evaluate = module.eval_expr

            def counted(e, u, evaluate=evaluate):
                calls.append(np.size(u))
                return evaluate(e, u)

            monkeypatch.setattr(module, "eval_expr", counted)
        mesh = build_mesh(catenoid(), catenoid_spec(48))
        assert len(mesh.edges) > 4000
        assert 0 < len(calls) <= len(mesh.edges) / 100


class TestExport:
    def test_obj_round_trip_counts(self):
        spec = SamplingSpec(-1, 1, -1, 1, nx=4, ny=4)
        mesh = build_mesh(helicoid(), spec)
        text = export_mesh(mesh).decode("ascii")
        lines = text.strip().split("\n")
        nv = sum(1 for l in lines if l.startswith("v "))
        nn = sum(1 for l in lines if l.startswith("vn "))
        nf = sum(1 for l in lines if l.startswith("f "))
        assert nv == nn == 16
        assert nf == len(mesh.faces) == 18
        # face indices are 1-based and in range
        for l in lines:
            if l.startswith("f "):
                for tok in l.split()[1:]:
                    idx = int(tok.split("//")[0])
                    assert 1 <= idx <= nv

    def test_obj_vertex_precision(self):
        spec = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=21, ny=21)
        mesh = build_mesh(helicoid(), spec)
        text = export_mesh(mesh).decode("ascii")
        first = next(l for l in text.split("\n") if l.startswith("v "))
        got = np.array([float(t) for t in first.split()[1:]])
        assert np.linalg.norm(got - mesh.vertices[0][1]) < 1e-7

    def test_empty_mesh_refused(self):
        empty = SurfaceMesh(
            u=np.zeros(0, dtype=complex),
            xyz=np.zeros((0, 3)),
            normals=np.zeros((0, 3)),
            faces=[],
            edge_ends=np.zeros((0, 2), dtype=int),
            edge_lengths=np.zeros(0),
            grid=-np.ones((1, 1), dtype=int),
        )
        with pytest.raises(ValueError):
            export_mesh(empty)

    def test_obj_bytes_match_list_reference(self):
        # the arrays give the bytes the vertex and face lists give
        mesh = build_mesh(helicoid(), SamplingSpec(-1, 1, -1, 1, nx=5, ny=4))
        lines = ["v %.9g %.9g %.9g" % (p[0], p[1], p[2])
                 for _, p, _ in mesh.vertices]
        lines += ["vn %.9g %.9g %.9g" % (n[0], n[1], n[2])
                  for _, _, n in mesh.vertices]
        lines += [f"f {a + 1}//{a + 1} {b + 1}//{b + 1} {c + 1}//{c + 1}"
                  for a, b, c in mesh.faces]
        assert export_mesh(mesh) == ("\n".join(lines) + "\n").encode("ascii")

    def test_unknown_format_refused(self):
        spec = SamplingSpec(-1, 1, -1, 1, nx=2, ny=2)
        mesh = build_mesh(helicoid(), spec)
        with pytest.raises(ValueError):
            export_mesh(mesh, fmt="stl")


class TestProbe:
    def test_helicoid_is_embedded(self):
        spec = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=40, ny=40)
        mesh = build_mesh(helicoid(), spec)
        rep = probe_self_intersection(mesh, delta_ext=0.05, delta_int=1.0)
        assert rep.embedded and not rep.pairs

    def test_enneper_self_intersection_found(self):
        spec = SamplingSpec(-2.2, 2.2, -2.2, 2.2, nx=48, ny=48)
        mesh = build_mesh(enneper(), spec)
        rep = probe_self_intersection(mesh, delta_ext=0.05, delta_int=2.0)
        assert not rep.embedded
        assert rep.pairs
        # pairs are sorted by extrinsic distance and respect both thresholds
        ext = [p[2] for p in rep.pairs]
        assert ext == sorted(ext)
        for _, _, d, intrinsic in rep.pairs:
            assert d < 0.05
            assert intrinsic > rep.delta_int

    def test_ties_sorted_by_index(self):
        # two mirror-image pairs at exactly the same distance, with no mesh
        # edges between them; vertex 0 shares a cube with the pair (3, 4)
        # but is farther than delta_ext from both
        points = [
            (10.001, 10.001, 10.001),
            (-10.049, -10.049, -10.04),
            (-10.049, -10.049, -10.049),
            (10.049, 10.049, 10.04),
            (10.049, 10.049, 10.049),
        ]
        mesh = SurfaceMesh(
            u=np.zeros(len(points), dtype=complex),
            xyz=np.array(points),
            normals=np.zeros((len(points), 3)),
            faces=[],
            edge_ends=np.zeros((0, 2), dtype=int),
            edge_lengths=np.zeros(0),
            grid=np.arange(len(points))[:, None],
        )
        rep = probe_self_intersection(mesh, delta_ext=0.05, delta_int=1.0)
        assert [(a, b) for a, b, _, _ in rep.pairs] == [(1, 2), (3, 4)]
        assert rep.pairs[0][2] == rep.pairs[1][2]

    def test_threshold_order_guard(self):
        spec = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=10, ny=10)
        mesh = build_mesh(helicoid(), spec)
        with pytest.raises(ThresholdOrder):
            probe_self_intersection(mesh, delta_ext=0.05, delta_int=0.01)

    @pytest.mark.parametrize(
        "delta_ext, delta_int",
        [(0.05, math.nan), (math.nan, 2.0), (0.0, 2.0), (-0.05, 2.0),
         (math.inf, 2.0), (0.05, math.inf)],
    )
    def test_bad_thresholds_refused(self, delta_ext, delta_int):
        # a nan compares false with everything, so it once certified
        # embeddedness; 0 divided by zero in the spatial hash, a negative
        # delta_ext found nothing, and inf made every pair a candidate.
        # delta_int = 2 exceeds twice the longest edge at both lambdas
        spec = SamplingSpec(-1, 1, -1, 1, nx=16, ny=16)
        mesh = build_mesh(enneper(), spec)
        probe_self_intersection(mesh, 0.05, 2.0)
        lambda_sweep(enneper(), [0.5, 1.0], spec, delta_ext=0.05,
                     delta_int=2.0)
        with pytest.raises(ThresholdOrder):
            probe_self_intersection(mesh, delta_ext, delta_int)
        with pytest.raises(ThresholdOrder):
            lambda_sweep(enneper(), [0.5, 1.0], spec, delta_ext=delta_ext,
                         delta_int=delta_int)

    def test_zero_default_thresholds_refused(self):
        # a single vertex has a zero bounding box, so zero default thresholds
        mesh = build_mesh(helicoid(), SamplingSpec(-1, 1, -1, 1, nx=1, ny=1))
        assert default_thresholds(mesh) == (0.0, 0.0)
        with pytest.raises(ThresholdOrder):
            probe_self_intersection(mesh)

    def test_delta_ext_below_exact_keys_refused(self):
        # the cube keys xyz / delta_ext must be exact integers, below 2^52;
        # at 1e-300 they once overflowed int64 and fell into one cube
        spec = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=10, ny=10)
        mesh = build_mesh(helicoid(), spec)
        extent = float(np.abs(mesh.xyz).max())
        for delta_ext in (1e-300, extent / 2.0 ** 52):
            with pytest.raises(ThresholdOrder, match="max \\|xyz\\|"):
                probe_self_intersection(mesh, delta_ext, 3.0)
            with pytest.raises(ThresholdOrder, match="max \\|xyz\\|"):
                lambda_sweep(helicoid(), [1.0], spec, delta_ext=delta_ext,
                             delta_int=3.0)
        rep = probe_self_intersection(mesh, extent / 2.0 ** 51, 3.0)
        assert rep.embedded

    def test_default_thresholds_scale_with_bbox(self):
        spec = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=10, ny=10)
        mesh = build_mesh(helicoid(), spec)
        d_ext, d_int = default_thresholds(mesh)
        assert abs(d_ext - 0.02 * mesh.bounding_box_diagonal()) < 1e-12
        assert abs(d_int - 20.0 * d_ext) < 1e-12


def exhaustive_dijkstra(adjacency, source, cutoff=math.inf):
    """Reference: Dijkstra that pops every heap entry and relaxes only from
    those within cutoff; with no cutoff it is the plain full search."""
    dist = np.full(len(adjacency), np.inf)
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


def brute_force_pairs(positions, cell):
    """Every pair at distance < cell, oriented as _spatial_hash_pairs
    orients them: from the smaller cube key, or the smaller index."""
    keys = [tuple(k) for k in np.floor(positions / cell).astype(int).tolist()]
    out = []
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            d = float(np.linalg.norm(positions[a] - positions[b]))
            if d < cell:
                out.append((b, a, d) if keys[b] < keys[a] else (a, b, d))
    return sorted(out)


class TestSpatialHash:
    @pytest.mark.parametrize("cell", [0.05, 0.2, 0.5])
    def test_random_cloud(self, cell):
        positions = np.random.default_rng(7).uniform(-1, 1, size=(600, 3))
        got = _spatial_hash_pairs(positions, cell)
        assert got == sorted(got)
        assert got == brute_force_pairs(positions, cell)

    def test_enneper_mesh(self):
        spec = SamplingSpec(-2.2, 2.2, -2.2, 2.2, nx=24, ny=24)
        positions = build_mesh(enneper(), spec).positions()
        for cell in (0.15, 0.4):
            got = _spatial_hash_pairs(positions, cell)
            assert got and got == brute_force_pairs(positions, cell)

    def test_tiny_cell_and_few_points(self):
        positions = np.random.default_rng(8).uniform(-1e3, 1e3, size=(50, 3))
        positions[7] = positions[3] + 1e-13
        assert _spatial_hash_pairs(positions, 1e-12) == brute_force_pairs(
            positions, 1e-12
        )
        assert _spatial_hash_pairs(positions[:1], 0.1) == []
        assert _spatial_hash_pairs(positions[:0], 0.1) == []

    @pytest.mark.parametrize("keys", [(0, 2, 5), (-7, -6, -4, -1, 0, 1)],
                             ids=["gaps", "adjacent-and-gaps"])
    def test_key_gaps(self, keys):
        # on each axis, clumps of points at the given cube keys: a gap of
        # one empty cube (0, 2 or -6, -4), of several (2, 5 or -4, -1), and
        # adjacent keys; points crowd the cube faces, so that many pairs
        # lie just under or over one cell apart
        rng = np.random.default_rng(11)
        cell = 0.25
        k = rng.choice(keys, size=(500, 3))
        s = rng.choice([0.0, 0.02, 0.5, 0.98, 0.999], size=(500, 3))
        positions = (k + s + rng.uniform(0, 1e-3, size=(500, 3))) * cell
        got = _spatial_hash_pairs(positions, cell)
        assert got and got == brute_force_pairs(positions, cell)

    def test_negative_keys(self):
        positions = np.random.default_rng(12).uniform(-3, -1, size=(400, 3))
        positions[::2, 1] += 2.5  # and some that cross zero on y
        for cell in (0.1, 0.35):
            got = _spatial_hash_pairs(positions, cell)
            assert got and got == brute_force_pairs(positions, cell)

    def test_one_cube(self):
        # every point in one cube, and every pair nearer than cell
        positions = np.random.default_rng(13).uniform(0.1, 0.4, size=(60, 3))
        got = _spatial_hash_pairs(positions, 1.0)
        assert len(got) == 60 * 59 // 2
        assert got == brute_force_pairs(positions, 1.0)

    def test_coincident_points(self):
        # pairs at distance 0, within one cube and oriented by index
        rng = np.random.default_rng(14)
        base = rng.uniform(-1, 1, size=(40, 3))
        positions = base[rng.integers(0, 40, size=120)]
        got = _spatial_hash_pairs(positions, 0.2)
        assert sum(d == 0.0 for _, _, d in got) >= 80
        assert got == brute_force_pairs(positions, 0.2)


def all_pairs(positions, cell):
    """brute_force_pairs as array operations over every pair at once."""
    keys = np.floor(positions / cell)
    a, b = np.triu_indices(len(positions), 1)
    # the first axis where the cube keys differ decides the orientation
    differ = keys[a] != keys[b]
    axis = np.argmax(differ, axis=1)
    rows = np.arange(len(a))
    swap = differ[rows, axis] & (keys[b, axis] < keys[a, axis])
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    diff = positions[a] - positions[b]
    # np.linalg.norm of one vector, as brute_force_pairs takes it
    d = np.sqrt(np.vecdot(diff, diff))
    near = np.flatnonzero(d < cell)
    near = near[np.lexsort((b[near], a[near]))]
    return list(zip(a[near].tolist(), b[near].tolist(), d[near].tolist()))


class TestHashInSweeps:
    @pytest.mark.parametrize(
        "data, spec, lambdas, delta_ext, delta_int",
        [
            (catenoid(), catenoid_spec(24), [0.5, 1.0, 2.0], 0.2, 3.0),
            (enneper(), SamplingSpec(-2, 2, -2, 2, nx=24, ny=24), [0.5, 1.0],
             0.15, 2.0),
        ],
        ids=["catenoid", "enneper"],
    )
    def test_every_call_matches_all_pairs(self, monkeypatch, data, spec,
                                          lambdas, delta_ext, delta_int):
        # every spatial hash of a sweep, the Enneper one's bisection too
        calls = []

        def captured(positions, cell):
            out = _spatial_hash_pairs(positions, cell)
            calls.append((np.array(positions), cell, out))
            return out

        monkeypatch.setattr(mesh_module, "_spatial_hash_pairs", captured)
        lambda_sweep(data, lambdas, spec, delta_ext=delta_ext,
                     delta_int=delta_int)
        assert len(calls) >= len(lambdas)
        assert sum(len(out) for _, _, out in calls) > 0
        for positions, cell, out in calls:
            assert out == all_pairs(positions, cell)
        # the oracle itself, against the loops on part of the last mesh
        part = positions[::3]
        assert all_pairs(part, cell) == brute_force_pairs(part, cell)


def adjacency_lists(mesh):
    """Per vertex, its (neighbour, edge length) pairs in edge order."""
    adjacency = [[] for _ in mesh.vertices]
    for a, b, length in mesh.edges:
        adjacency[a].append((b, length))
        adjacency[b].append((a, length))
    return adjacency


def walled(mesh):
    """mesh with infinitely long edges across Re u = 0 above Im u = -1: a
    wall with a gap below it."""
    u0, u1 = mesh.u[mesh.edge_ends].T
    wall = (np.sign(u0.real) != np.sign(u1.real)) & (u0.imag > -1.0)
    lengths = np.where(wall, math.inf, mesh.edge_lengths)
    return dataclasses.replace(mesh, edge_lengths=lengths)


def random_grid_mesh(rng, nx, ny, excluded=0.1, infinite=0.05):
    """A SurfaceMesh on an nx x ny grid of jittered 3-d points, a fraction
    excluded of them left out.  Every grid edge between included points is
    as long as its chord, or (half of them) up to three times longer, and
    a fraction infinite of them is infinitely long."""
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    xyz = np.stack([0.1 * i, 0.1 * j, np.zeros(i.shape)], axis=-1)
    xyz = xyz + rng.normal(scale=0.04, size=xyz.shape)
    mask = rng.random((nx, ny)) >= excluded
    grid = -np.ones((nx, ny), dtype=int)
    grid[mask] = np.arange(np.count_nonzero(mask))
    ends = [
        (grid[p], grid[q])
        for p in zip(i.ravel(), j.ravel())
        for q in ((p[0] + 1, p[1]), (p[0], p[1] + 1))
        if q[0] < nx and q[1] < ny and mask[p] and mask[q]
    ]
    ends = np.array(ends, dtype=int).reshape(-1, 2)
    pos = xyz[mask]
    chord = np.linalg.norm(pos[ends[:, 1]] - pos[ends[:, 0]], axis=1)
    stretch = np.where(rng.random(len(ends)) < 0.5, 1.0,
                       1.0 + 2.0 * rng.random(len(ends)))
    length = np.where(rng.random(len(ends)) < infinite, math.inf,
                      chord * stretch)
    return SurfaceMesh(
        u=np.zeros(len(pos), dtype=complex),
        xyz=pos,
        normals=np.zeros(pos.shape),
        faces=[],
        edge_ends=ends,
        edge_lengths=length,
        grid=grid,
    )


class TestBoundedSearch:
    """The probe's goal-directed search against searches run to
    exhaustion."""

    @pytest.mark.parametrize(
        "data, spec, delta_ext, delta_int, wall, far",
        [
            (enneper(), SamplingSpec(-2.2, 2.2, -2.2, 2.2, nx=24, ny=24),
             0.15, 2.0, False, True),
            (helicoid(), SamplingSpec(-math.pi, math.pi, -1.0, 1.0,
                                      nx=24, ny=24), 0.3, 1.5, False, False),
            (catenoid(), catenoid_spec(24), 0.3, 1.5, False, False),
            (enneper(), SamplingSpec(-2.2, 2.2, -2.2, 2.2, nx=24, ny=24),
             0.3, 0.5, True, True),
        ],
        ids=["enneper", "helicoid", "catenoid", "enneper-walled"],
    )
    def test_matches_full_search(self, data, spec, delta_ext, delta_int,
                                 wall, far):
        mesh = build_mesh(data, spec)
        if wall:
            mesh = walled(mesh)
        adjacency = adjacency_lists(mesh)
        graph = _csr_graph(mesh)
        for v, neighbours in enumerate(adjacency):
            lo, hi = graph[0][v], graph[0][v + 1]
            assert list(zip(graph[1][lo:hi], graph[2][lo:hi])) == neighbours
        eff_int = INTRINSIC_SLACK * delta_int
        cutoff = eff_int * 1.01
        candidates = _spatial_hash_pairs(mesh.positions(), delta_ext)
        targets = {}
        for a, b, _ in candidates:
            targets.setdefault(a, []).append(b)
        assert targets

        full = {a: exhaustive_dijkstra(adjacency, a) for a in targets}
        settled = 0
        for a, bs in targets.items():
            got = _graph_distance(graph, a, bs, cutoff)
            # every target holds what the search run to exhaustion with the
            # same cutoff holds; one settled within the cutoff is final
            assert got == list(exhaustive_dijkstra(adjacency, a, cutoff)[bs])
            for b, d in zip(bs, got):
                if full[a][b] <= cutoff:
                    assert d == full[a][b]
                    settled += 1
                else:
                    assert d > cutoff
        assert settled

        # the far pairs are exactly the candidates intrinsically beyond the
        # effective threshold, in candidate order
        want = [(a, b, d) for a, b, d in candidates if full[a][b] > eff_int]
        pairs = list(_far_pairs(mesh, delta_ext, eff_int))
        assert [(a, b, d) for a, b, d, _ in pairs] == want
        for a, b, _, intrinsic in pairs:
            assert intrinsic >= full[a][b]
        assert bool(want) == far
        if wall:
            # the probe refuses a mesh with an infinitely long edge
            with pytest.raises(ThresholdOrder):
                probe_self_intersection(mesh, delta_ext, delta_int)
        else:
            rep = probe_self_intersection(mesh, delta_ext, delta_int)
            assert rep.pairs == sorted(pairs, key=lambda t: (t[2], t[0], t[1]))

        # every vertex as a target, at cutoffs inside the mesh
        every = list(range(len(mesh.vertices)))
        for source in (0, len(every) // 2):
            for c in (0.5, 1.0, 2.0):
                got = _graph_distance(graph, source, every, c)
                assert got == list(exhaustive_dijkstra(adjacency, source, c))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_grid_graphs(self, seed):
        # edges as long as their chords make the search's lower bound
        # tight, where rounding would first show
        rng = np.random.default_rng(seed)
        mesh = random_grid_mesh(rng, 9, 12)
        adjacency = adjacency_lists(mesh)
        graph = _csr_graph(mesh)
        n = len(adjacency)
        for _ in range(8):
            source = int(rng.integers(n))
            targets = rng.choice(n, size=int(rng.integers(1, 6)),
                                 replace=False).tolist()
            for cutoff in (0.15, 0.4, 0.8, math.inf):
                want = exhaustive_dijkstra(adjacency, source, cutoff)[targets]
                got = _graph_distance(graph, source, targets, cutoff)
                assert got == list(want)

    def test_stops_at_cutoff(self):
        # a path graph 0 - 1 - 2 - 3 with unit edges, its vertices one apart
        # on a line: the search from 0 pops nothing past the cutoff, so 3
        # keeps its tentative value (or inf when the search stops before
        # reaching it)
        # in CSR form: the neighbours of v are nbr[ptr[v]:ptr[v + 1]]
        xyz = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        graph = ([0, 1, 3, 5, 6], [1, 0, 2, 1, 3, 2], [1.0] * 6, xyz)
        assert _graph_distance(graph, 0, [1, 3], 2.5) == [1.0, 3.0]
        assert _graph_distance(graph, 0, [3], 1.5) == [math.inf]
        assert _graph_distance(graph, 0, [2, 3], 10.0) == [2.0, 3.0]


class TestGridPathFilter:
    """The exact pre-filter: a candidate that a grid L-path shows to be near
    is never far by a search run to exhaustion."""

    @pytest.mark.parametrize(
        "case", ["enneper", "catenoid", "random", "huge-edge"]
    )
    def test_dropped_pairs_are_near(self, case):
        rng = np.random.default_rng(11)
        if case == "enneper":
            spec = SamplingSpec(-2.2, 2.2, -2.2, 2.2, nx=24, ny=24)
            mesh, limits = build_mesh(enneper(), spec), (1.5, 3.0)
        elif case == "catenoid":
            mesh, limits = build_mesh(catenoid(), catenoid_spec(16)), (0.3, 0.45)
        elif case == "random":
            mesh, limits = random_grid_mesh(rng, 8, 12), (0.3, 0.6, 1.0)
        else:
            # the first edge of grid row 0 is 1e15 long: summed into the
            # prefix sums along that row, it would round them to 1/8
            mesh = random_grid_mesh(rng, 4, 30, excluded=0.0, infinite=0.0)
            lengths = mesh.edge_lengths.copy()
            lengths[mesh.edge_ends.tolist().index([0, 1])] = 1e15
            mesh = dataclasses.replace(mesh, edge_lengths=lengths)
            limits = (0.3, 0.7, 1.1, 2.0)
        adjacency = adjacency_lists(mesh)
        if case in ("enneper", "catenoid"):
            candidates = _spatial_hash_pairs(mesh.positions(), 0.4)
            a, b = np.array([(a, b) for a, b, _ in candidates]).T
        else:
            a, b = np.triu_indices(len(adjacency), 1)
        full = np.array([exhaustive_dijkstra(adjacency, v)
                         for v in range(len(adjacency))])
        for limit in limits:
            near = _grid_path_within(mesh, _grid_edges(mesh), a, b, limit)
            assert near.any() and not near.all()
            assert (full[a[near], b[near]] <= limit).all()


def goal_distance(adjacency, full, a, b):
    """Per pair k, the least distance from a[k] to b[k] or to one of b[k]'s
    neighbours, with full[v] the distances from v."""
    return np.array([
        min(full[x][w] for w in [y] + [n for n, _ in adjacency[y]])
        for x, y in zip(a.tolist(), b.tolist())
    ])


class TestGridGapBound:
    """The grid-gap lower bound against searches run to exhaustion: at most
    the distance to every goal, and where it is beyond a cutoff, a search
    stopped there finds nothing."""

    @pytest.mark.parametrize("case", ["enneper", "catenoid", "random"])
    def test_below_every_goal(self, case):
        rng = np.random.default_rng(5)
        if case == "enneper":
            spec = SamplingSpec(-2.2, 2.2, -2.2, 2.2, nx=24, ny=24)
            mesh, cell, cutoffs = build_mesh(enneper(), spec), 0.4, (1.5, 3.0)
        elif case == "catenoid":
            mesh = build_mesh(catenoid(), catenoid_spec(16))
            cell, cutoffs = 0.8, (0.2, 0.5)
        else:
            mesh, cutoffs = random_grid_mesh(rng, 9, 12), (0.3, 0.6, 1.0)
        adjacency = adjacency_lists(mesh)
        if case == "random":
            a, b = np.nonzero(~np.eye(len(adjacency), dtype=bool))
        else:
            candidates = _spatial_hash_pairs(mesh.positions(), cell)
            a, b = np.array([(a, b) for a, b, _ in candidates]).T
        full = {v: exhaustive_dijkstra(adjacency, v) for v in set(a.tolist())}
        goal = goal_distance(adjacency, full, a, b)
        graph = _csr_graph(mesh)
        for cutoff in cutoffs:
            bound = _grid_gap_bound(mesh, _grid_edges(mesh), a, b, cutoff)
            assert (bound * (1.0 - 1e-9) <= goal).all()
            beyond = np.flatnonzero(bound * (1.0 - 1e-9) > cutoff)
            assert 0 < len(beyond) < len(a)
            for k in beyond[:60].tolist():
                got = _graph_distance(graph, a[k], [b[k]], cutoff)
                assert got == [math.inf]

    def test_huge_edge(self):
        # one grid row whose first edge is 1e15 long: summed into the prefix
        # sums, it would round them to 1/8.  Every other pair's bound is its
        # distance along the row, the one path, to the nearest goal
        mesh = random_grid_mesh(np.random.default_rng(2), 1, 30,
                                excluded=0.0, infinite=0.0)
        lengths = mesh.edge_lengths.copy()
        lengths[mesh.edge_ends.tolist().index([0, 1])] = 1e15
        mesh = dataclasses.replace(mesh, edge_lengths=lengths)
        adjacency = adjacency_lists(mesh)
        a, b = np.nonzero(~np.eye(len(adjacency), dtype=bool))
        full = {v: exhaustive_dijkstra(adjacency, v) for v in range(30)}
        goal = goal_distance(adjacency, full, a, b)
        for cutoff in (0.3, 1.0, 2.0):
            bound = _grid_gap_bound(mesh, _grid_edges(mesh), a, b, cutoff)
            assert (bound * (1.0 - 1e-9) <= goal).all()
            row = goal <= 2.0 * cutoff
            assert row.any() and not row.all()
            assert np.allclose(bound[row], goal[row], rtol=1e-12, atol=0)
            assert (bound[~row] >= 2.0 * cutoff).all()

    def test_gap_no_edge_crosses(self):
        # no edge between grid columns 4 and 5: a pair across them is two
        # cutoffs apart by the bound, and far at inf among the probe's
        # pairs, with no inf - inf in the prefix sums
        mesh = random_grid_mesh(np.random.default_rng(3), 6, 10,
                                excluded=0.0, infinite=0.0)
        column = np.tile(np.arange(10), 6)  # vertex 10 i + j at (i, j)
        cut = (column[mesh.edge_ends] == [4, 5]).all(axis=1)
        mesh = dataclasses.replace(mesh, edge_ends=mesh.edge_ends[~cut],
                                   edge_lengths=mesh.edge_lengths[~cut])
        a, b = np.nonzero(~np.eye(len(mesh.u), dtype=bool))
        across = (column[a] <= 4) != (column[b] <= 4)
        adjacency = adjacency_lists(mesh)
        full = {v: exhaustive_dijkstra(adjacency, v) for v in range(60)}
        goal = goal_distance(adjacency, full, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = _grid_gap_bound(mesh, _grid_edges(mesh), a, b, 0.5)
            pairs = list(_far_pairs(mesh, 0.25, 0.5 / 1.01))
        assert (bound[across] >= 1.0).all() and np.isinf(goal[across]).all()
        assert (bound[~across] * (1.0 - 1e-9) <= goal[~across]).all()
        assert any(math.isinf(d) for _, _, _, d in pairs)

    def test_edge_not_unit_step(self):
        # one grid row of unit edges 1 long and a shortcut from column 2 to
        # column 8, 3 long: it crosses 6 gaps and counts 1/2 in each, so
        # the bound from column 1 to column 9's goal 8 is 1 + 3, the
        # distance, where counting 3 in each gap would give 1 + 6
        mesh = random_grid_mesh(np.random.default_rng(4), 1, 12,
                                excluded=0.0, infinite=0.0)
        mesh = dataclasses.replace(
            mesh, edge_ends=np.vstack([mesh.edge_ends, [[2, 8]]]),
            edge_lengths=np.append(np.ones(11), 3.0))
        adjacency = adjacency_lists(mesh)
        a, b = np.nonzero(~np.eye(12, dtype=bool))
        full = {v: exhaustive_dijkstra(adjacency, v) for v in range(12)}
        goal = goal_distance(adjacency, full, a, b)
        edges = _grid_edges(mesh)
        assert (_grid_gap_bound(mesh, edges, a, b, 10.0) <= goal).all()
        one = _grid_gap_bound(mesh, edges, np.array([1]), np.array([9]), 10.0)
        assert one.tolist() == [4.0]

        # and a 7 x 7 grid with, beside its unit steps, edges of two rows
        # and one column, each crossing three gaps
        rng = np.random.default_rng(6)
        mesh = random_grid_mesh(rng, 7, 7, excluded=0.0, infinite=0.0)
        ij = np.argwhere(mesh.grid >= 0)
        p = mesh.grid[:-2, :-1].ravel()
        q = mesh.grid[2:, 1:].ravel()
        chord = np.linalg.norm(mesh.xyz[q] - mesh.xyz[p], axis=1)
        mesh = dataclasses.replace(
            mesh, edge_ends=np.vstack([mesh.edge_ends, np.stack([p, q], 1)]),
            edge_lengths=np.append(mesh.edge_lengths, 0.6 * chord))
        assert (np.abs(ij[q] - ij[p]).sum(axis=1) == 3).all()
        adjacency = adjacency_lists(mesh)
        a, b = np.nonzero(~np.eye(len(adjacency), dtype=bool))
        full = {v: exhaustive_dijkstra(adjacency, v) for v in range(49)}
        goal = goal_distance(adjacency, full, a, b)
        for cutoff in (0.2, 0.5):
            bound = _grid_gap_bound(mesh, _grid_edges(mesh), a, b, cutoff)
            assert (bound * (1.0 - 1e-9) <= goal).all()

    def test_far_pairs_match_searching_every_pair(self, monkeypatch):
        # the plane-embed benchmark's probes and sweeps: the bound decides
        # every candidate the grid path leaves open, with the tuples, bit
        # for bit, of a search of each
        heli = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=40, ny=40)
        calls = [(build_mesh(helicoid(), heli), 0.05, 1.0)]
        spec = SamplingSpec(-2, 2, -2, 2, nx=56, ny=56)
        calls.append((build_mesh(enneper(), spec), 0.05, 2.0))
        far_pairs = mesh_module._far_pairs

        def capture(m, delta_ext, eff_int):
            calls.append((m, delta_ext, eff_int / INTRINSIC_SLACK))
            return far_pairs(m, delta_ext, eff_int)

        monkeypatch.setattr(mesh_module, "_far_pairs", capture)
        lambda_sweep(catenoid(), [0.5, 1.0, 2.0], catenoid_spec(48),
                     delta_ext=0.05, delta_int=1.5)
        lambda_sweep(enneper(), [0.5, 1.0],
                     SamplingSpec(-2, 2, -2, 2, nx=48, ny=48),
                     delta_ext=0.05, delta_int=2.0)
        monkeypatch.setattr(mesh_module, "_far_pairs", far_pairs)

        searches = []

        def counted(graph, source, targets, cutoff):
            searches.append(len(targets))
            return _graph_distance(graph, source, targets, cutoff)

        monkeypatch.setattr(mesh_module, "_graph_distance", counted)
        got = [list(_far_pairs(m, d, INTRINSIC_SLACK * i))
               for m, d, i in calls]
        assert not searches
        monkeypatch.setattr(mesh_module, "_grid_gap_bound",
                            lambda mesh, edges, a, b, cutoff: np.zeros(len(a)))
        want = [list(_far_pairs(m, d, INTRINSIC_SLACK * i))
                for m, d, i in calls]
        assert sum(searches) >= 20
        assert repr(got) == repr(want)
        assert sum(map(len, got)) >= 20


class TestLambdaReuse:
    """Every swept mesh against a full rebuild of the deformed data."""

    @pytest.mark.parametrize(
        "data, spec",
        [
            (catenoid(), catenoid_spec(16)),
            (enneper(), SamplingSpec(-2, 2, -2, 2, nx=16, ny=16)),
        ],
        ids=["catenoid", "enneper"],
    )
    def test_swept_mesh_matches_rebuild(self, data, spec, monkeypatch):
        swept = {}
        far_pairs = mesh_module._far_pairs

        def capture(m, delta_ext, eff_int):
            lam = float(m.label.rsplit("=", 1)[1]) if "=" in m.label else 1.0
            swept[lam] = m
            return far_pairs(m, delta_ext, eff_int)

        monkeypatch.setattr(mesh_module, "_far_pairs", capture)
        # 0.5 and 2 scale the integrals exactly; 1.3 rounds
        lambda_sweep(
            data, [0.5, 1.3, 2.0], spec, delta_ext=0.05, delta_int=5.0
        )
        assert {0.5, 1.3, 2.0} <= set(swept)

        for lam, got in swept.items():
            deformed = lopez_ros(data, lam)
            want = build_mesh(deformed, spec)
            assert got.label == want.label == deformed.label
            assert got.faces == want.faces
            pos, ref = got.positions(), want.positions()
            assert np.abs(pos - ref).max() <= 1e-12 * np.abs(ref).max()
            for (a, b, length), (a2, b2, ref_length) in zip(
                got.edges, want.edges
            ):
                assert (a, b) == (a2, b2)
                assert abs(length - ref_length) <= 1e-12 * ref_length
            for (u, _, n), (u2, _, n2) in zip(got.vertices, want.vertices):
                assert u == u2
                assert np.abs(n - n2).max() <= 1e-14
                assert np.abs(n - gauss_normal(deformed, u)).max() <= 1e-14

    def test_edge_length_is_conformal_arclength(self):
        # the (A, B) Gauss sums reproduce the 8-point Gauss quadrature of
        # the conformal factor along each edge, at lambda = 1 and deformed
        nodes, weights = np.polynomial.legendre.leggauss(8)
        spec = catenoid_spec(10)
        for lam in (1.0, 0.5):
            deformed = lopez_ros(catenoid(), lam)
            mesh = build_mesh(deformed, spec)
            pos = mesh.positions()
            us = [u for u, _, _ in mesh.vertices]
            for a, b, length in mesh.edges:
                u0, u1 = us[a], us[b]
                total = sum(
                    w * conformal_factor(deformed, u0 + 0.5 * (t + 1) * (u1 - u0))
                    for t, w in zip(nodes, weights)
                )
                ref = max(0.5 * abs(u1 - u0) * total,
                          float(np.linalg.norm(pos[b] - pos[a])))
                assert abs(length - ref) <= 1e-12 * ref


class TestSweep:
    def test_catenoid_sweep_no_flip(self):
        basis = CycleBasis([circle(0, 1.0)], ["neck"])
        res = lambda_sweep(
            catenoid(),
            [0.5, 1.0, 2.0],
            catenoid_spec(),
            basis=basis,
            delta_ext=0.05,
            delta_int=2.0,
        )
        assert [lam for lam, _, _ in res.table] == [0.5, 1.0, 2.0]
        assert all(emb for _, emb, _ in res.table)
        assert all(resid < 1e-10 for _, _, resid in res.table)
        assert res.bracket is None

    @pytest.mark.parametrize(
        "data, spec, delta_ext, delta_int",
        [
            (catenoid(), catenoid_spec(), 0.05, 2.0),
            (helicoid(), SamplingSpec(-math.pi, math.pi, -1.0, 1.0,
                                      nx=24, ny=24), 0.3, 2.0),
            (enneper(), SamplingSpec(-2, 2, -2, 2, nx=48, ny=48), 0.05, 2.0),
        ],
        ids=["catenoid", "helicoid", "enneper"],
    )
    def test_verdict_matches_probe(self, data, spec, delta_ext, delta_int):
        # the sweep stops at the first far pair; its verdict is the full
        # probe's on the same mesh.  The Enneper mesh has 4 far pairs at
        # 0.859375 and none at 0.8515625, the bisection's closest calls
        lambdas = [0.5, 0.75, 0.8515625, 0.859375, 0.875, 1.0, 2.0]
        res = lambda_sweep(data, lambdas, spec, delta_ext=delta_ext,
                           delta_int=delta_int)
        integrals = _mesh_integrals(data, spec)
        pairs = {}
        for lam, embedded, _ in res.table:
            m = _assemble_mesh(integrals, lam, "")
            rep = probe_self_intersection(m, delta_ext, delta_int)
            assert embedded == rep.embedded
            pairs[lam] = len(rep.pairs)
        if data.label == "enneper":
            assert pairs[0.8515625] == 0 and pairs[0.859375] == 4

    def test_one_period_run_per_sweep(self, monkeypatch):
        # the flux test and every lambda's residuals come from one run over
        # the basis cycles, at min(tol, 1e-10)
        basis = CycleBasis([circle(0, 1.0)], ["neck"])
        runs = []
        integrate = surface_module.integrate_paths

        def counted(f, paths, tol):
            runs.append((paths, tol))
            return integrate(f, paths, tol)

        monkeypatch.setattr(surface_module, "integrate_paths", counted)
        res = lambda_sweep(
            catenoid(), [0.5, 1.3], catenoid_spec(8), basis=basis,
            delta_ext=0.05, delta_int=2.0,
        )
        assert [tol for paths, tol in runs if paths is basis.cycles] == [1e-10]
        triples = period_triples(catenoid(), basis.cycles, 1e-10)
        for lam, _, resid in res.table:
            scaled = lopez_ros_triples(triples, lam)
            want = triples_report(basis.labels, scaled, 1e-8).max_residual
            assert resid == want

    def test_horizontal_flux_rejected(self):
        data = WeierstrassData(
            g=parse_expr("u + 2", PUNCTURED),
            dh=parse_expr("1/u du", PUNCTURED),
            basepoint=1.0,
        )
        basis = CycleBasis([circle(0, 0.5)], ["loop"])
        with pytest.raises(NotVerticalFlux):
            lambda_sweep(data, [1.0], catenoid_spec(8), basis=basis)
