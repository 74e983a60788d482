"""Surface-level checks against closed-form minimal surfaces."""

import math

import numpy as np
import pytest

from helikon.errors import NonpositiveLambda, NotUnitModulusC
from helikon.expr import Involution, Plane, PuncturedPlane, parse_expr, torus
from helikon.paths import circle, polyline
from helikon.surface import (
    CycleBasis,
    WeierstrassData,
    conformal_factor,
    exactness_check,
    flux,
    gauss_normal,
    immerse,
    involution_report,
    is_vertical_flux,
    lopez_ros,
    period_report,
    period_triple,
    pole_zero_pairing,
    recombine,
    straight_route,
    symmetry_verify,
)

PLANE = Plane()
PUNCTURED = PuncturedPlane((0,))


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


def helicoid_exact(u):
    x, y = u.real, u.imag
    return np.array(
        [math.sin(x) * math.sinh(y), -math.cos(x) * math.sinh(y), x]
    )


class TestImmersion:
    def test_helicoid_closed_form(self):
        data = helicoid()
        for u in (0.3 + 0.4j, -1.2 + 0.9j, 2.0 - 0.7j):
            got = immerse(data, u)
            assert np.linalg.norm(got - helicoid_exact(u)) < 1e-10

    def test_route_independence(self):
        data = helicoid()
        u = 1.1 + 0.6j
        direct = immerse(data, u, route=polyline([0, u]))
        dogleg = immerse(data, u, route=polyline([0, 1.1, u]))
        assert np.linalg.norm(direct - dogleg) < 1e-10

    def test_catenoid_detoured_route(self):
        # straight route 1 -> -1 passes the puncture; policy detours
        data = catenoid()
        route = straight_route(data, -1.0)
        got = immerse(data, -1.0, route=route)
        assert np.all(np.isfinite(got))

    def test_gauss_normal_unit(self):
        data = helicoid()
        for u in (0.2 + 0.1j, 1.4 - 0.8j):
            n = gauss_normal(data, u)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-12

    def test_gauss_normal_at_pole_of_g(self):
        data = catenoid()
        # g = u has no pole here, but 1/g does at 0; the convention check:
        big = gauss_normal(data, 1e9)
        assert np.linalg.norm(big - np.array([0.0, 0.0, 1.0])) < 1e-6

    def test_gauss_normal_huge_g(self):
        # |g| = e^400 ~ 5e173: squaring it would overflow a float
        data = WeierstrassData(
            g=parse_expr("exp(u)", PLANE), dh=parse_expr("1 du", PLANE),
            basepoint=0.0,
        )
        n = gauss_normal(data, 400.0)
        assert np.array_equal(n, np.array([0.0, 0.0, 1.0]))

    def test_conformal_factor(self):
        data = helicoid()
        # lambda = (|g| + 1/|g|)/2 * |dh/du| = cosh(-y)
        u = 0.3 + 0.5j
        assert abs(conformal_factor(data, u) - math.cosh(0.5)) < 1e-12


class TestPeriodsAndFlux:
    def test_catenoid_periods_close(self):
        data = catenoid()
        basis = CycleBasis([circle(0, 1.0)], ["neck"])
        rep = period_report(data, basis)
        assert rep.max_residual < 1e-10
        assert rep.closes

    def test_catenoid_flux(self):
        data = catenoid()
        f = flux(data, circle(0, 1.0))
        f1, f2, f3 = tuple(f)
        assert abs(f1) < 1e-9 and abs(f2) < 1e-9
        assert abs(f3 - 2 * math.pi) < 1e-9

    def test_flux_homology_invariance(self):
        data = catenoid()
        a = np.array(tuple(flux(data, circle(0, 0.7))))
        b = np.array(tuple(flux(data, circle(0, 1.9))))
        assert np.linalg.norm(a - b) < 1e-9

    def test_vertical_flux_report(self):
        data = catenoid()
        basis = CycleBasis([circle(0, 1.0)], ["neck"])
        rep = is_vertical_flux(data, basis)
        assert rep.vertical and not rep.vacuous

    def test_exactness(self):
        data = catenoid()
        basis = CycleBasis([circle(0, 1.0)], ["neck"])
        assert exactness_check(data, basis).exact


class TestPeriodTriple:
    """flux, immerse and period_report all read the same period triple."""

    # both cycles start and end at the basepoint, so immerse can walk them
    @pytest.mark.parametrize(
        "data, cycle",
        [(catenoid(), circle(0, 1.0)), (helicoid(), circle(-0.7, 0.7))],
        ids=["catenoid-neck", "helicoid-loop"],
    )
    def test_reports_share_the_triple(self, data, cycle):
        triple = period_triple(data, cycle)
        vec = recombine(*triple)
        assert tuple(flux(data, cycle)) == tuple(v.imag for v in vec)
        closed = immerse(data, data.basepoint, route=cycle)
        assert list(closed) == [v.real for v in vec]
        entry, = period_report(data, CycleBasis([cycle], ["c"])).entries
        assert (entry.p_plus, entry.p_minus, entry.p_three) == triple


class TestLopezRos:
    def test_closure_preserved_under_vertical_flux(self):
        data = catenoid()
        basis = CycleBasis([circle(0, 1.0)], ["neck"])
        for lam in (0.5, 2.0):
            rep = period_report(lopez_ros(data, lam), basis)
            assert rep.max_residual < 1e-10

    def test_lambda_one_is_identity(self):
        data = catenoid()
        assert lopez_ros(data, 1.0) is data

    def test_nonpositive_lambda(self):
        with pytest.raises(NonpositiveLambda):
            lopez_ros(catenoid(), -0.5)
        with pytest.raises(NonpositiveLambda):
            lopez_ros(catenoid(), 0.0)


class TestCycleBasis:
    def test_torus_generator_cycles(self):
        dom = torus(1j)
        b = -0.48 - 0.36j
        basis = CycleBasis(
            [polyline([b, b + 1]), polyline([b, b + 1j])],
            ["A", "B"],
            lattice=dom.lattice,
        )
        assert len(basis.items()) == 2

    def test_open_path_rejected_without_lattice(self):
        with pytest.raises(ValueError):
            CycleBasis([polyline([0, 1])], ["A"])


class TestSymmetry:
    def test_helicoid_involution_report(self):
        data = helicoid()
        inv = Involution(0.0, PLANE)
        rep = involution_report(data, inv)
        assert rep.dh_odd and rep.dgg_odd
        assert abs(rep.C - 1.0) < 1e-12

    def test_helicoid_normal_symmetry(self):
        data = helicoid()
        inv = Involution(0.0, PLANE)
        samples = []
        for p in (0.4 + 0.3j, -0.7 + 0.5j, 1.1 - 0.2j):
            samples.append((p, polyline([0, p])))
        dev = symmetry_verify(data, inv, samples)
        assert dev < 1e-9

    def test_not_unit_modulus_branch(self):
        data = WeierstrassData(
            g=parse_expr("2*exp(i*u)", PLANE),
            dh=parse_expr("1 du", PLANE),
            basepoint=0.0,
        )
        inv = Involution(0.0, PLANE)
        with pytest.raises(NotUnitModulusC):
            symmetry_verify(data, inv, [(0.3, polyline([0, 0.3]))])

    def test_pole_zero_pairing_plane_vacuous(self):
        rep = pole_zero_pairing(helicoid(), Involution(0.0, PLANE))
        assert rep.ok and rep.vacuous

    def test_pole_zero_pairing_torus(self):
        dom = torus(1j, (0.3j, -0.3j))
        g = parse_expr(
            "exp((0-3.141592653589793)*u)*sigma(u-0.3*i)*sigma(u+0.3*i+0.5)"
            "/(sigma(u+0.3*i)*sigma(u-0.3*i-0.5))",
            dom,
        )
        dh = parse_expr("(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du", dom)
        data = WeierstrassData(g=g, dh=dh, basepoint=0.21 + 0.43j)
        rep = pole_zero_pairing(data, Involution(0.0, dom))
        assert rep.ok and not rep.vacuous
        assert len(rep.pairs) >= 2
