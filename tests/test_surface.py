"""Surface-level checks against closed-form minimal surfaces."""

import cmath
import math
import os

import numpy as np
import pytest

from helikon import surface as surface_module
from helikon.errors import NonpositiveLambda, NotUnitModulusC
from helikon.expr import (
    Const,
    Expr,
    Involution,
    Plane,
    Var,
    eval_expr,
    mul,
    parse_expr,
    pullback,
    torus,
)
from helikon.paths import Arc, circle, polyline
from helikon.records import replace
from helikon.scene import load_scene
from helikon.surface import (
    CycleBasis,
    WeierstrassData,
    _generic_samples,
    _involute_path,
    flux,
    fluxes,
    immerse,
    involution_report,
    is_vertical_flux,
    lopez_ros,
    period_report,
    period_triple,
    recombine,
    straight_route,
    symmetry_verify,
)

from references import (
    conformal_factor,
    exactness_check,
    gauss_normal,
    pole_zero_pairing,
    screened_samples,
)

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

    def test_involuted_detour(self):
        # the route 1 -> -1 detours around the puncture 0 by an arc; its
        # image about c runs through c - point(t) on every segment
        route = straight_route(catenoid(), -1.0)
        c = 0.2 + 0.1j
        image = _involute_path(route, c)
        assert any(isinstance(seg, Arc) for seg in route.segments)
        assert len(image.segments) == len(route.segments)
        for seg, moved in zip(route.segments, image.segments):
            assert type(moved) is type(seg)
            for t in (0.0, 0.5, 1.0):
                assert abs(moved.point(t) - (c - seg.point(t))) < 1e-14

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

    def test_one_evaluation_per_integrand_call(self, monkeypatch):
        # g and dh come from one joint evaluation per period_values call
        sc = load_scene(os.path.join(SCENES, "periodic-candidate.scene"))
        data, basis = sc.data["candidate"], sc.cycle_basis()
        calls, evals = [], []
        values = WeierstrassData.period_values
        evaluate = surface_module.eval_expr

        def counted_values(self, u):
            calls.append(np.size(u))
            return values(self, u)

        def counted_eval(e, u):
            evals.append(len(e) if isinstance(e, tuple) else 1)
            return evaluate(e, u)

        monkeypatch.setattr(WeierstrassData, "period_values", counted_values)
        monkeypatch.setattr(surface_module, "eval_expr", counted_eval)
        rep = period_report(data, basis)
        assert len(rep.entries) == 2 and calls
        assert evals == [2] * len(calls)

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

    def test_fluxes_of_many_cycles(self):
        data = catenoid()
        cycles = [circle(0, 0.7), circle(0, 1.9), circle(0.5, 0.2)]
        for got, cyc in zip(fluxes(data, cycles), cycles):
            want = flux(data, cyc)
            assert all(abs(a - b) <= 1e-15 for a, b in zip(got, want))

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
        for lam in (math.nan, math.inf):
            with pytest.raises(NonpositiveLambda):
                lopez_ros(catenoid(), lam)


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

    def test_generators_are_marked_periodic(self):
        # single Lines that close modulo the lattice take the periodic
        # rule; a closed polyline stays as it is
        b = -0.48 - 0.36j
        cycles = [polyline([b, b + 1]), polyline([b, b + 1j]),
                  polyline([0.1, 0.2, 0.2j], closed=True)]
        basis = CycleBasis(cycles, ["A", "B", "C"], lattice=torus(1j).lattice)
        assert [c.periodic for c in basis.cycles] == [True, True, False]
        assert basis.cycles[0].segments == cycles[0].segments
        assert basis.cycles[2] is cycles[2]
        assert not cycles[0].periodic

    def test_open_path_rejected_without_lattice(self):
        with pytest.raises(ValueError):
            CycleBasis([polyline([0, 1])], ["A"])


SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def reference_symmetry(data, inv, samples):
    """symmetry_verify with one immerse call per route."""
    g_p0 = eval_expr(data.g, inv.p0)
    phase = cmath.exp(-1j * cmath.phase(g_p0))
    g_rot = Expr(mul(Const(phase), data.g.node), data.g.domain)
    normalized = replace(data, g=g_rot, basepoint=complex(inv.p0))
    worst = 0.0
    for p, route in samples:
        fp = immerse(normalized, p, route)
        image = _involute_path(route, inv.center)
        fip = immerse(normalized, inv.apply(p), image)
        dev = np.linalg.norm(fip - np.array([fp[0], -fp[1], -fp[2]]))
        worst = max(worst, dev)
    return worst


def reference_involution_deviations(data, inv, samples):
    """(dh_dev, dgg_dev, c_dev) of involution_report, one point at a time."""
    dgg = data.log_gauss_form()
    devs = []
    for w in (data.dh, dgg):
        sym = w + pullback(w, inv)
        devs.append(max(abs(eval_expr(sym.coeff, u)) for u in samples))
    C = eval_expr(data.g, inv.p0) ** 2
    devs.append(max(
        abs(eval_expr(data.g, inv.apply(u)) * eval_expr(data.g, u) - C)
        for u in samples
    ))
    return devs


def pole_at_sample():
    """Plane data whose g = 1/(u - s) has its pole at s, the eighth generic
    sample, so that the involution report must drop s and draw again."""
    s = _generic_samples(PLANE, 20)[7]
    data = WeierstrassData(
        g=Expr(Const(1), PLANE) / (Expr(Var(), PLANE) - s),
        dh=parse_expr("1 du", PLANE),
        basepoint=0.0,
    )
    return data, s


class TestSymmetry:
    def test_generic_samples_keep_clear_on_skewed_lattice(self):
        # every sample lies at least 5e-2 from the puncture modulo the
        # lattice, measured by the distance, not by a cell point of <1, tau>
        p = 0.5 + 0.15j
        domain = torus(3.4 + 0.3j, (p,))
        samples = _generic_samples(domain, 200)
        assert len(samples) == 200
        assert min(domain.distance(u, p) for u in samples) >= 5e-2

    @pytest.mark.parametrize(
        "scene", (None, "periodic-candidate.scene", "pole-at-sample")
    )
    def test_involution_report_matches_per_point(self, scene, monkeypatch):
        if scene is None:
            data, inv = helicoid(), Involution(0.0, PLANE)
        elif scene == "pole-at-sample":
            (data, s), inv = pole_at_sample(), Involution(0.0, PLANE)
        else:
            sc = load_scene(os.path.join(SCENES, scene))
            data, inv = sc.only_data(), sc.resolve_involution("I")
        samples = screened_samples(data, inv)
        if scene == "pole-at-sample":
            assert s not in samples
        else:
            assert samples == _generic_samples(data.domain, 20)
        seen = []
        deviation = surface_module._sampled_form_deviation

        def recorded(w, inv, samples):
            seen.append(samples.tolist())
            return deviation(w, inv, samples)

        monkeypatch.setattr(
            surface_module, "_sampled_form_deviation", recorded
        )
        rep = involution_report(data, inv)
        assert seen == [samples, samples]
        got = (rep.dh_dev, rep.dgg_dev, rep.c_dev)
        want = reference_involution_deviations(data, inv, samples)
        # arrays round differently from scalars; the deviations are
        # differences of values of size up to |want|
        for a, b in zip(got, want):
            assert abs(a - b) < 1e-14 * max(1.0, b)

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

    def test_routes_must_start_at_p0(self):
        inv = Involution(0.0, PLANE)
        with pytest.raises(ValueError):
            symmetry_verify(helicoid(), inv, [(0.3, polyline([0.1, 0.3]))])

    @pytest.mark.parametrize("scene", (None, "periodic-candidate.scene"))
    def test_matches_per_sample_immerse(self, scene):
        if scene is None:
            data, inv = helicoid(), Involution(0.0, PLANE)
            points = [0.4 + 0.3j, -0.7 + 0.5j, 1.1 - 0.2j]
        else:
            sc = load_scene(os.path.join(SCENES, scene))
            data, inv = sc.only_data(), sc.resolve_involution("I")
            points = _generic_samples(data.domain, 12)
        moved = replace(data, basepoint=complex(inv.p0))
        samples = [(p, straight_route(moved, p)) for p in points]
        assert symmetry_verify(data, inv, samples) == reference_symmetry(
            data, inv, samples
        )

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
