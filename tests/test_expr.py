"""Expression language: parsing, evaluation, calculus, pullbacks."""

import cmath
import math

import numpy as np
import pytest

from helikon.errors import (
    DomainError,
    DomainViolation,
    ExprSyntaxError,
    PoleAt,
)
from helikon.expr import (
    FormExpr,
    Involution,
    Plane,
    PuncturedPlane,
    constant,
    coordinate,
    differentiate,
    eval_expr,
    log_derivative,
    parse_expr,
    pullback,
    torus,
)
from helikon.kernels import sigma_w, wp, wp_prime, zeta_w

PLANE = Plane()
TORUS = torus(1j)


class TestParser:
    def test_closed_forms(self):
        e = parse_expr("exp(i*u)", PLANE)
        u = 0.7 - 0.2j
        assert abs(eval_expr(e, u) - cmath.exp(1j * u)) < 1e-14

    def test_arithmetic_precedence(self):
        e = parse_expr("1 + 2*u^2 - u/4", PLANE)
        u = 1.5 + 0.5j
        assert abs(eval_expr(e, u) - (1 + 2 * u**2 - u / 4)) < 1e-13

    def test_negative_powers(self):
        e = parse_expr("u^-2", PuncturedPlane((0,)))
        assert abs(eval_expr(e, 2.0) - 0.25) < 1e-14

    def test_form_suffix(self):
        w = parse_expr("u^2 du", PLANE)
        assert isinstance(w, FormExpr)
        assert abs(eval_expr(w, 3.0) - 9.0) < 1e-14

    def test_elliptic_blocks(self):
        lat = TORUS.lattice
        for text, ref in (
            ("wp(u)", wp),
            ("wpp(u)", wp_prime),
            ("zeta(u)", zeta_w),
            ("sigma(u)", sigma_w),
        ):
            e = parse_expr(text, TORUS)
            u = 0.31 + 0.24j
            assert abs(eval_expr(e, u) - ref(u, lat)) < 1e-12

    def test_shifted_block(self):
        e = parse_expr("wp(u - 0.25)", TORUS)
        u = 0.6 + 0.3j
        assert abs(eval_expr(e, u) - wp(u - 0.25, TORUS.lattice)) < 1e-12

    def test_elliptic_on_plane_rejected(self):
        with pytest.raises(DomainError):
            parse_expr("wp(u)", PLANE)

    def test_non_affine_elliptic_argument_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("wp(u^2)", TORUS)
        with pytest.raises(ExprSyntaxError):
            parse_expr("zeta(2*u)", TORUS)

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1 + * u", PLANE)
        assert err.value.position == 4

    def test_round_trip(self):
        texts = [
            "exp(i*u)",
            "wp(u - (0.25+0.5*i))",
            "zeta(u - 0.3) - zeta(u + 0.3)",
            "(1/u) * sigma(u - 0.1)",
            "u^3 - 2*u + (0-1*i)",
        ]
        for text in texts:
            dom = TORUS
            e = parse_expr(text, dom)
            rt = parse_expr(e.to_text(), dom)
            u = 0.41 + 0.19j
            assert abs(eval_expr(e, u) - eval_expr(rt, u)) < 1e-12


class TestEvaluation:
    def test_division_pole(self):
        e = parse_expr("1/u", PuncturedPlane((0,)))
        with pytest.raises(DomainViolation):
            eval_expr(e, 0.0)

    def test_plane_division_by_zero(self):
        e = parse_expr("1/u", PLANE)
        with pytest.raises(PoleAt):
            eval_expr(e, 0.0)

    def test_puncture_guard_mod_lattice(self):
        dom = torus(1j, (0.3j,))
        e = parse_expr("u", dom)
        with pytest.raises(DomainViolation):
            eval_expr(e, 0.3j + 1 + 1j)

    def test_expr_arithmetic_dunders(self):
        u_e = coordinate(PLANE)
        two = constant(2.0, PLANE)
        e = (u_e * u_e + two) / (u_e - two)
        z = 3.0 + 1.0j
        assert abs(e(z) - (z * z + 2) / (z - 2)) < 1e-13


class TestArrayEvaluation:
    POINTS = np.array([0.31 + 0.17j, -0.42 + 0.28j, 0.05 - 0.61j, 1.2 + 0.9j])

    @pytest.mark.parametrize(
        "text",
        ["exp(i*u) * u^-2", "sigma(u - 0.3*i) / sigma(u + 0.3*i)",
         "wpp(u - 0.1) - zeta(u)^2", "2 + i"],
    )
    def test_array_matches_points(self, text):
        e = parse_expr(text, torus(0.3 + 0.8j))
        values = eval_expr(e, self.POINTS)
        assert values.shape == self.POINTS.shape
        for u, v in zip(self.POINTS, values):
            one = eval_expr(e, u)
            assert type(one) is complex
            assert abs(v - one) <= 1e-14 * max(1.0, abs(one))

    def test_pole_at_one_point(self):
        e = parse_expr("1/(u - 0.05 + 0.61*i)", PLANE)
        with pytest.raises(PoleAt, match="0.05-0.61j"):
            eval_expr(e, self.POINTS)

    def test_puncture_at_one_point_mod_lattice(self):
        dom = torus(1j, (0.3j,))
        points = np.array([0.1 + 0.1j, 0.3j + 2 - 1j, 0.2 + 0.4j])
        with pytest.raises(DomainViolation):
            eval_expr(parse_expr("u", dom), points)


class TestCalculus:
    @pytest.mark.parametrize(
        "text",
        ["exp(i*u)", "u^3 - u", "wp(u - 0.2)", "zeta(u)", "sigma(u - 0.1)",
         "wpp(u)", "1/(u - 0.5)"],
    )
    def test_derivative_matches_fd(self, text):
        e = parse_expr(text, TORUS)
        d = differentiate(e)
        u, h = 0.37 + 0.29j, 1e-6
        fd = (eval_expr(e, u + h) - eval_expr(e, u - h)) / (2 * h)
        scale = max(1.0, abs(fd))
        assert abs(eval_expr(d, u) - fd) < 2e-6 * scale

    def test_form_derivative(self):
        w = parse_expr("u^2 du", PLANE)
        dw = differentiate(w)
        assert isinstance(dw, FormExpr)
        assert abs(eval_expr(dw, 2.0) - 4.0) < 1e-13

    def test_log_derivative_exp(self):
        g = parse_expr("exp(i*u)", PLANE)
        w = log_derivative(g)
        assert abs(eval_expr(w, 0.3) - 1j) < 1e-13

    def test_log_derivative_sigma_quotient(self):
        g = parse_expr("sigma(u - 0.2)/sigma(u + 0.2)", TORUS)
        w = log_derivative(g)
        lat = TORUS.lattice
        u = 0.4 + 0.3j
        expected = zeta_w(u - 0.2, lat) - zeta_w(u + 0.2, lat)
        assert abs(eval_expr(w, u) - expected) < 1e-11


class TestPullback:
    def test_function_pullback(self):
        inv = Involution(0.3, TORUS)
        e = parse_expr("wp(u - 0.1)", TORUS)
        pb = pullback(e, inv)
        u = 0.45 + 0.27j
        assert abs(eval_expr(pb, u) - eval_expr(e, 0.3 - u)) < 1e-12

    def test_form_pullback_jacobian(self):
        inv = Involution(0.0, PLANE)
        w = parse_expr("u^2 du", PLANE)
        pb = pullback(w, inv)
        # I*(u^2 du) = (-u)^2 d(-u) = -u^2 du
        assert abs(eval_expr(pb, 2.0) + 4.0) < 1e-13

    def test_odd_form_detection(self):
        # dh = -i (zeta(u - a) - zeta(u + a)) du is odd under u -> -u
        dom = torus(1j, (0.3j, -0.3j))
        w = parse_expr("(0-i)*(zeta(u - 0.3*i) - zeta(u + 0.3*i)) du", dom)
        inv = Involution(0.0, dom)
        pb = pullback(w, inv)
        u = 0.38 + 0.21j
        assert abs(eval_expr(pb, u) + eval_expr(w, u)) < 1e-11


class TestInvolution:
    def test_fixed_points_on_torus(self):
        inv = Involution(0.4, TORUS)
        assert len(inv.fixed_points) == 4
        for p in inv.fixed_points:
            assert TORUS.same_point(inv.apply(p), p, 1e-12)

    def test_fixed_point_on_plane(self):
        inv = Involution(1 + 1j, PLANE)
        assert inv.fixed_points == (0.5 + 0.5j,)

    def test_p0_must_be_fixed(self):
        with pytest.raises(ValueError):
            Involution(0.0, TORUS, p0=0.3 + 0.1j)
