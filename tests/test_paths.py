"""Contour quadrature checks against closed-form integrals."""

import math

import numpy as np
import pytest

from helikon import paths
from helikon.divisor import laurent_coefficient, residue, residues
from helikon.errors import (
    DomainViolation,
    NoConvergence,
    NonFiniteSample,
    PathThroughPole,
    PoleAt,
)
from helikon.expr import Plane, parse_expr, torus
from helikon.kernels import wp, zeta_w
from helikon.lattice import Lattice
from helikon.paths import (
    Arc,
    Line,
    Lines,
    PathSpec,
    circle,
    evaluate,
    generator,
    integrate_path,
    integrate_paths,
    polyline,
    rectangle,
)
from helikon.surface import WeierstrassData, period_triple

TWO_PI_I = 2j * math.pi


class TestPathGeometry:
    def test_line_endpoints(self):
        seg = Line(1 + 1j, 2 - 1j)
        assert seg.point(0.0) == 1 + 1j
        assert seg.point(1.0) == 2 - 1j
        assert seg.velocity(0.5) == 1 - 2j

    def test_arc_endpoints(self):
        arc = Arc(0.0, 2.0, 0.0, math.pi)
        assert abs(arc.first - 2.0) < 1e-14
        assert abs(arc.last + 2.0) < 1e-14

    def test_mismatched_segments_rejected(self):
        with pytest.raises(ValueError):
            PathSpec([Line(0, 1), Line(2, 3)])

    def test_closed_flag_requires_closure(self):
        with pytest.raises(ValueError):
            PathSpec([Line(0, 1)], closed=True)

    def test_polyline_closes(self):
        p = polyline([0, 1, 1 + 1j], closed=True)
        assert p.closed
        assert abs(p.segments[-1].last - p.first) < 1e-14

    def test_reversed(self):
        p = polyline([0, 1 + 1j, 2])
        r = p.reversed()
        assert abs(r.first - p.last) < 1e-14
        assert abs(r.last - p.first) < 1e-14


class TestQuadrature:
    def test_cauchy_integral(self):
        val = integrate_path(lambda z: 1.0 / z, circle(0, 1.0), 1e-13)
        assert abs(val - TWO_PI_I) < 1e-12

    def test_clockwise_orientation(self):
        val = integrate_path(lambda z: 1.0 / z, circle(0, 1.0, -1), 1e-13)
        assert abs(val + TWO_PI_I) < 1e-12

    def test_double_pole_no_residue(self):
        val = integrate_path(lambda z: 1.0 / z**2, circle(0, 0.5), 1e-13)
        assert abs(val) < 1e-12

    def test_entire_function_closed_path(self):
        val = integrate_path(
            lambda z: np.exp(z) * z**3, rectangle(-1 - 1j, 2, 2j), 1e-13
        )
        assert abs(val) < 1e-12

    def test_path_independence(self):
        f = lambda z: z**2
        direct = integrate_path(f, polyline([0, 1 + 1j]), 1e-13)
        detour = integrate_path(f, polyline([0, 1, 1 + 1j]), 1e-13)
        exact = (1 + 1j) ** 3 / 3
        assert abs(direct - exact) < 1e-12
        assert abs(detour - exact) < 1e-12

    def test_sharp_peak_adaptivity(self):
        # narrow Runge-like peak on [-1, 1]
        f = lambda z: 1.0 / (z**2 + 1e-4)
        val = integrate_path(f, polyline([-1, 1]), 1e-12)
        exact = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
        assert abs(val - exact) < 1e-9

    def test_non_finite_sample(self):
        with pytest.raises(NonFiniteSample):
            integrate_path(lambda z: complex(math.inf, 0), polyline([0, 1]), 1e-10)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate_path(lambda z: z, polyline([0, 1]), 0.0)

    def test_elliptic_residue(self):
        # residue of zeta_w at the origin is 1
        from helikon.kernels import zeta_w
        from helikon.lattice import Lattice

        lat = Lattice(1j)
        val = integrate_path(lambda z: zeta_w(z, lat), circle(0, 0.3), 1e-12)
        assert abs(val - TWO_PI_I) < 1e-11


class TestGaussKronrodRule:
    def test_weights_integrate_constants(self):
        # each rule integrates 1 over [-1, 1] exactly
        for weights in (paths._WK, paths._WG):
            assert abs(math.fsum(weights) - 2.0) <= 4 * math.ulp(2.0)

    def test_large_integrand_reaches_tol(self, monkeypatch):
        # |1/u^3| = 8000 on r = 0.05: weights off by 6e-15 leave a K-G gap
        # on every panel that no subdivision brings under tol 1e-12
        monkeypatch.setattr(paths, "PANEL_BUDGET", 64)
        w = parse_expr("1/u^3 du", Plane((0,)))
        assert abs(residue(w, 0.0, 0.05, tol=1e-12)) < 1e-12


def reference_panel(f, seg, t0, t1):
    """Gauss-Kronrod (7, 15) on one panel, one integrand call on its 15
    nodes: (value, error)."""
    half = 0.5 * (t1 - t0)
    t = 0.5 * (t0 + t1) + half * paths._XK_ARRAY
    fv = f(seg.point(t)) * seg.velocity(t)
    k_sum, g_sum = (paths._WEIGHTS @ fv).tolist()
    k_sum *= half
    g_sum *= half
    return k_sum, abs(k_sum - g_sum)


def reference_integrate(f, path, tol):
    """Depth-first adaptive Gauss-Kronrod with the engine's acceptance rule;
    returns the integral and every panel evaluated, as (segment, t0, t1)."""
    seg_tol = tol / len(path.segments)
    total, evaluated = 0j, []
    for k, seg in enumerate(path.segments):
        stack, acc = [(0.0, 1.0)], 0j
        while stack:
            t0, t1 = stack.pop()
            evaluated.append((k, t0, t1))
            val, err = reference_panel(f, seg, t0, t1)
            if err <= seg_tol * (t1 - t0) or err <= 1e-16:
                acc += val
            else:
                tm = 0.5 * (t0 + t1)
                stack += [(tm, t1), (t0, tm)]
        total += acc
    return total, evaluated


def engine_panels(monkeypatch):
    """Record every panel the engine evaluates, as (segment, t0, t1)."""
    seen = []
    gk_panel = paths._gk_panel

    def recorded(f, segments, idx, t0, t1):
        seen.extend(zip(idx.tolist(), t0.tolist(), t1.tolist()))
        return gk_panel(f, segments, idx, t0, t1)

    monkeypatch.setattr(paths, "_gk_panel", recorded)
    return seen


def runge(z):
    return 1.0 / (z**2 + 1e-4)


# a mix of Lines and Arcs, closed and open, one and several segments
MIXED_PATHS = [
    polyline([-1 - 0.2j, 1 + 0.1j]),
    circle(0.3, 0.5),
    PathSpec([Line(1.0, 2.0), Arc(0.0, 2.0, 0.0, math.pi / 2), Line(2j, 1j)]),
    rectangle(-1 - 1j, 2, 2j),
    circle(0, 0.05, -1),
    # a clockwise three-quarter turn: an arc, not a periodic path
    PathSpec([Arc(0.0, 0.05, 2 * math.pi, math.pi / 2)]),
]


def mixed(z):
    return 1.0 / z**3 + np.exp(z) / (z - 0.3) + 1.0 / (z**2 + 1e-3)


class TestEngine:
    """integrate_paths against per-path runs and a depth-first reference."""

    def test_matches_per_path_runs(self):
        together = integrate_paths(mixed, MIXED_PATHS, 1e-11)
        assert together.shape == (len(MIXED_PATHS),)
        for path, value in zip(MIXED_PATHS, together):
            # each path keeps its own panels, sums and order
            assert value == integrate_path(mixed, path, 1e-11)

    @pytest.mark.parametrize(
        "f, path",
        [(runge, polyline([-1, 1])), (mixed, MIXED_PATHS[2]),
         (mixed, MIXED_PATHS[5])],
        ids=["runge", "line-arc-line", "small-arc"],
    )
    def test_same_panels_as_depth_first(self, f, path, monkeypatch):
        want, want_panels = reference_integrate(f, path, 1e-11)
        seen = engine_panels(monkeypatch)
        got = integrate_path(f, path, 1e-11)
        assert len(want_panels) > 3
        assert sorted(seen) == sorted(want_panels)
        assert got == want

    def test_bounded_blocks(self, monkeypatch):
        sizes = []

        def f(z):
            sizes.append(z.shape)
            return mixed(z)

        want = integrate_paths(mixed, MIXED_PATHS, 1e-11)
        monkeypatch.setattr(paths, "BLOCK_PANELS", 4)
        got = integrate_paths(f, MIXED_PATHS, 1e-11)
        assert np.array_equal(got, want)
        assert max(sizes) == (60,)
        assert all(len(s) == 1 and s[0] % 15 == 0 for s in sizes)

    def test_budget_is_per_path(self, monkeypatch):
        path = polyline([-1, 1])
        _, panels = reference_integrate(runge, path, 1e-12)
        bisections = (len(panels) - 1) // 2
        want = integrate_path(runge, path, 1e-12)
        # two paths at the limit each: together they bisect twice as often
        monkeypatch.setattr(paths, "PANEL_BUDGET", 2 * bisections)
        got = integrate_paths(runge, [path, polyline([0, 2]), path], 1e-12)
        assert got[0] == got[2] == want
        monkeypatch.setattr(paths, "PANEL_BUDGET", 2 * bisections - 2)
        with pytest.raises(NoConvergence):
            integrate_paths(runge, [polyline([0, 2]), path], 1e-12)

    def test_vector_integrand_joint_error_test(self, monkeypatch):
        # two peaks on either side of 0: a form alone refines around its
        # own peak, the pair around both
        left = lambda z: 1.0 / ((z + 0.5) ** 2 + 1e-4)
        right = lambda z: 1.0 / ((z - 0.5) ** 2 + 1e-4)
        path = polyline([-1, 1])
        tol = 1e-11
        single = []
        for f in (left, right):
            seen = engine_panels(monkeypatch)
            single.append((integrate_path(f, path, tol), set(seen)))
            monkeypatch.undo()
        seen = engine_panels(monkeypatch)
        pair = lambda z: np.stack([left(z), right(z)])
        both = integrate_paths(pair, [path], tol)
        assert both.shape == (1, 2)
        # one run over the union of the two refinements
        assert set(seen) == single[0][1] | single[1][1]
        assert len(seen) == len(set(seen))
        for got, (want, _) in zip(both[0], single):
            assert abs(got - want) <= tol

    def test_no_paths(self):
        assert integrate_paths(runge, [], 1e-10).shape == (0,)


class TestPanelContract:
    """The integrand is called once per bisection level and block, on the
    flat array of the 15 nodes of every active panel."""

    def test_one_integrand_call_per_level(self, monkeypatch):
        path = polyline([-1, 1])
        _, want_panels = reference_integrate(runge, path, 1e-12)
        # panels per level: a panel of length 2**-d is on level d
        per_level = {}
        for _, t0, t1 in want_panels:
            level = round(-math.log2(t1 - t0))
            per_level[level] = per_level.get(level, 0) + 1
        assert max(per_level.values()) <= paths.BLOCK_PANELS

        shapes = []

        def f(z):
            shapes.append(np.shape(z))
            return runge(z)

        seen = engine_panels(monkeypatch)
        integrate_path(f, path, 1e-12)
        assert len(shapes) == len(per_level) > 1
        assert shapes == [(15 * per_level[d],) for d in sorted(per_level)]
        assert sorted(seen) == sorted(want_panels)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_one_non_finite_node(self, bad):
        def f(z):
            out = np.ones_like(z)
            out[3] = bad
            return out

        with pytest.raises(NonFiniteSample):
            integrate_path(f, polyline([0, 1]), 1e-10)

    @pytest.mark.parametrize(
        "domain, g, path",
        [
            # the middle node of [0, 1] is 0.5 exactly
            (Plane(), "1/(u - 0.5)", polyline([0, 1])),
            # and that of [-0.5, 0.5] is the lattice point 0
            (torus(1j), "wp(u)", polyline([-0.5, 0.5])),
        ],
    )
    def test_node_on_pole(self, domain, g, path):
        data = WeierstrassData(
            g=parse_expr(g, domain), dh=parse_expr("1 du", domain),
            basepoint=path.first,
        )
        with pytest.raises(PathThroughPole):
            period_triple(data, path)


LAT = Lattice(1j)
BASE = -0.4871 - 0.3631j


def elliptic(z):
    """wp(u - 0.3i) + 2 wp(u + 0.25): elliptic, with no pole near A or B."""
    return wp(z - 0.3j, LAT) + 2.0 * wp(z + 0.25, LAT)


class TestPeriodicRule:
    """Full-turn circles and marked torus generators take the nested
    periodic trapezoidal rule; everything else, and every fallback, takes
    Gauss-Kronrod."""

    def test_periodic_paths(self):
        assert circle(0.2, 0.5).periodic and circle(0.2, 0.5, -1).periodic
        assert circle(0.2, 0.5).reversed().periodic
        assert generator(BASE, 1j).periodic
        assert generator(BASE, 1j).reversed().periodic
        assert not polyline([BASE, BASE + 1]).periodic
        assert not MIXED_PATHS[5].periodic
        assert not rectangle(0, 1, 1j).periodic
        with pytest.raises(ValueError):
            PathSpec([Line(0, 1), Line(1, 2)], periodic=True)

    @pytest.mark.parametrize("k", range(-3, 3))
    def test_laurent_coefficients_closed_form(self, k, monkeypatch):
        # exp(u) / u^3 = sum over k >= -3 of u^k / (k + 3)!
        seen = engine_panels(monkeypatch)
        w = parse_expr("exp(u)/u^3 du", Plane((0,)))
        got = laurent_coefficient(w, 0.0, k, radius=0.4)
        assert abs(got - 1.0 / math.factorial(k + 3)) < 1e-13
        assert not seen  # no Gauss-Kronrod panel

    def test_residues_closed_form(self, monkeypatch):
        seen = engine_panels(monkeypatch)
        dom = torus(1j, (0.3j, -0.3j))
        w = parse_expr("(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du", dom)
        got = residues(w, [0.3j, -0.3j, 0.2], 0.05)
        for value, want in zip(got, (-1j, 1j, 0)):
            assert abs(value - want) < 1e-13
        z = parse_expr("zeta(u - 0.1) + 1/u^2 du", torus(1j))
        assert abs(residue(z, 0.1, 0.05) - 1.0) < 1e-13
        assert not seen

    @pytest.mark.parametrize("span", [1, 1j], ids=["A", "B"])
    def test_generator_matches_gauss_kronrod(self, span, monkeypatch):
        want = integrate_path(elliptic, polyline([BASE, BASE + span]), 1e-13)
        seen = engine_panels(monkeypatch)
        got = integrate_path(elliptic, generator(BASE, span), 1e-12)
        assert abs(got - want) < 1e-12
        assert not seen

    def test_quasi_periodic_generator_falls_back(self, monkeypatch):
        # zeta(u + 1) = zeta(u) + 2 eta1: the ends disagree, so the marked
        # generator takes the same Gauss-Kronrod run as the plain Line
        f = lambda z: zeta_w(z, LAT)
        want = integrate_path(f, polyline([BASE, BASE + 1]), 1e-10)
        seen = engine_panels(monkeypatch)
        got = integrate_path(f, generator(BASE, 1), 1e-10)
        assert got == want and seen
        # zeta = (log sigma)', and sigma(u + 1) = -exp(eta1 (u + 1/2)) sigma(u)
        exact = LAT.eta1 * (BASE + 0.5) + 1j * math.pi
        assert abs(got - exact) < 1e-10

    def test_slow_convergence_falls_back(self, monkeypatch):
        # a pole 1e-3 from the circle: the doubling misses tol at the cap
        f = lambda z: 1.0 / (z - 1.001)
        seen = engine_panels(monkeypatch)
        got = integrate_path(f, circle(0, 1.0), 1e-12)
        assert seen and abs(got) < 1e-12

    def test_node_on_pole_raises_as_before(self, monkeypatch):
        # the circle's point at t = 1/2 is a node of both rules: the
        # trapezoid hands the path to Gauss-Kronrod, which raises there
        pole = complex(Arc(0.3, 0.5, 0.0, 2 * math.pi).point(0.5))

        def f(z):
            if np.any(z == pole):
                raise PoleAt(f"pole at {pole}")
            return 1.0 / (z - pole)

        with pytest.raises(PoleAt):
            integrate_path(f, circle(0.3, 0.5), 1e-10)
        data = WeierstrassData(
            g=parse_expr("1/(u - 1)", Plane()), dh=parse_expr("1 du", Plane()),
            basepoint=0.0,
        )
        # the pole is the trapezoid's node t = 0 and no Gauss-Kronrod node
        monkeypatch.setattr(paths, "PANEL_BUDGET", 64)
        with pytest.raises(NoConvergence):
            period_triple(data, circle(0, 1.0))

    def test_pole_on_one_path_leaves_the_others(self, monkeypatch):
        # f raises PoleAt at the first trapezoid node of one circle, a point
        # no Gauss-Kronrod node meets: that circle alone falls back
        flagged = complex(circle(0.1 - 0.2j, 0.2).first)

        def f(z):
            if np.any(z == flagged):
                raise PoleAt(f"pole at {flagged}")
            return elliptic(z)

        runs = [circle(0.6 + 0.6j, 0.15), circle(0.1 - 0.2j, 0.2),
                generator(BASE, 1)]
        alone = [integrate_path(f, path, 1e-11) for path in runs]
        seen = engine_panels(monkeypatch)
        assert integrate_paths(f, runs, 1e-11).tolist() == alone
        assert {seg for seg, _, _ in seen} == {1}
        assert abs(alone[1] - integrate_path(elliptic, runs[1], 1e-12)) < 1e-11

    def test_value_independent_of_run(self, monkeypatch):
        runs = [
            generator(BASE, 1), circle(0.1 + 0.2j, 0.2), generator(BASE, 1j),
            polyline([0.1, 0.4 + 0.2j]), circle(-0.3j, 0.05, -1),
            circle(0.3, 0.25),
        ]
        alone = [integrate_path(elliptic, path, 1e-11) for path in runs]
        together = integrate_paths(elliptic, runs, 1e-11)
        assert together.tolist() == alone
        assert integrate_paths(elliptic, runs[::-1], 1e-11).tolist() == alone[::-1]
        sizes = []

        def f(z):
            sizes.append(z.size)
            return elliptic(z)

        monkeypatch.setattr(paths, "BLOCK_PANELS", 3)
        assert integrate_paths(f, runs, 1e-11).tolist() == alone
        assert max(sizes) == 45

    def test_vector_integrand_joint_test(self):
        pair = lambda z: np.stack([elliptic(z), z * elliptic(z)])
        cycles = [generator(BASE, 1), circle(0.3, 0.2)]
        both = integrate_paths(pair, cycles, 1e-11)
        assert both.shape == (2, 2)
        for row, path in zip(both, cycles):
            assert abs(row[0] - integrate_path(elliptic, path, 1e-12)) < 1e-11
            assert abs(
                row[1] - integrate_path(lambda z: z * elliptic(z), path, 1e-12)
            ) < 1e-11


def cell_points(n):
    """n distinct points of the unit cell, away from LAT's poles."""
    k = np.arange(n)
    return 0.05 + 0.9 * ((k * 0.6180339887) % 1) + 0.9j * (k + 0.5) / n + 0.05j


def raising(f, poles, error=PoleAt):
    """f, but raising error in any call that holds one of the points poles,
    with each call's size recorded in the returned list."""
    sizes = []

    def g(z):
        sizes.append(z.size)
        if np.isin(z, poles).any():
            raise error(f"pole in a call of {z.size} points")
        return f(z)

    return g, sizes


class TestEvaluate:
    """paths.evaluate, the one pole rule for sampled data: nan at exactly
    the points where f raises, a plain call's value everywhere else."""

    def test_no_raise_is_a_plain_call(self):
        z = cell_points(2 * 15 * paths.BLOCK_PANELS + 7)
        f, sizes = raising(elliptic, [])
        got = evaluate(f, z)
        assert got.dtype == complex and np.array_equal(got, elliptic(z))
        assert len(sizes) == 3
        assert np.array_equal(evaluate(lambda u: 2.0, z), np.full(z.size, 2.0))

    @pytest.mark.parametrize("error", [PoleAt, DomainViolation])
    def test_nan_at_exactly_the_raising_points(self, error, monkeypatch):
        monkeypatch.setattr(paths, "BLOCK_PANELS", 3)
        z = cell_points(200)
        at = np.array([0, 44, 45, 46, 101, 102, 199])
        f, sizes = raising(elliptic, z[at], error)
        got = evaluate(f, z)
        bad = np.isnan(got)
        assert np.flatnonzero(bad).tolist() == at.tolist()
        assert np.array_equal(got[~bad], elliptic(z[~bad]))
        assert max(sizes) <= 45

    def test_vector_integrand(self):
        pair = lambda u: np.stack([elliptic(u), u * elliptic(u)])
        z = cell_points(50)
        f, _ = raising(pair, z[[3, 30]])
        got = evaluate(f, z)
        assert got.shape == (2, 50)
        bad = np.isnan(got)
        assert np.flatnonzero(bad.any(axis=0)).tolist() == [3, 30]
        assert bad[:, [3, 30]].all()
        keep = ~bad.any(axis=0)
        assert np.array_equal(got[:, keep], pair(z[keep]))

    def test_every_point_raises(self):
        z = cell_points(10)
        f, sizes = raising(elliptic, z)
        assert np.isnan(evaluate(f, z)).all()
        # one call on all ten, then halves down to each point alone
        assert len(sizes) == 19

    def test_empty(self):
        empty = np.zeros(0, dtype=complex)
        assert evaluate(elliptic, empty).shape == (0,)
        pair = lambda u: np.stack([u, 2 * u])
        assert evaluate(pair, empty).shape == (2, 0)


class TestLines:
    def test_lines_match_one_path_each(self):
        start = np.array([0.5 + 0.5j, 0.2 + 0.5j, -1 + 0.1j])
        end = np.array([1.0 + 0.7j, 2.0 + 0.1j, -1 - 0.9j])
        got = integrate_paths(mixed, Lines(start, end), 1e-11)
        want = [integrate_path(mixed, polyline([a, b]), 1e-11)
                for a, b in zip(start.tolist(), end.tolist())]
        assert got.tolist() == want
        # mixed with PathSpecs, in order
        both = integrate_paths(
            mixed, [MIXED_PATHS[2], Lines(start, end), MIXED_PATHS[0]], 1e-11
        )
        assert both[1:4].tolist() == want
        assert both[0] == integrate_path(mixed, MIXED_PATHS[2], 1e-11)
        assert both[4] == integrate_path(mixed, MIXED_PATHS[0], 1e-11)

    def test_empty_batch(self):
        assert integrate_paths(mixed, Lines([], []), 1e-10).shape == (0,)
