"""Contour quadrature checks against closed-form integrals."""

import math

import numpy as np
import pytest

from helikon import paths
from helikon.divisor import residue
from helikon.errors import NonFiniteSample, PathThroughPole
from helikon.expr import Plane, PuncturedPlane, parse_expr, torus
from helikon.paths import (
    Arc,
    Line,
    PathSpec,
    circle,
    integrate_path,
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
        w = parse_expr("1/u^3 du", PuncturedPlane((0,)))
        assert abs(residue(w, 0.0, 0.05, tol=1e-12)) < 1e-12


class TestPanelContract:
    """Each panel calls the integrand once, on the array of its 15 nodes."""

    def test_one_integrand_call_per_panel(self, monkeypatch):
        panels = []
        shapes = []

        def counted(*args):
            panels.append(args[2:])
            return gk_panel(*args)

        def f(z):
            shapes.append(np.shape(z))
            return 1.0 / (z**2 + 1e-4)

        gk_panel = paths._gk_panel
        monkeypatch.setattr(paths, "_gk_panel", counted)
        integrate_path(f, polyline([-1, 1]), 1e-12)
        assert len(panels) > 1
        assert len(shapes) == len(panels)
        assert set(shapes) == {(15,)}

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
