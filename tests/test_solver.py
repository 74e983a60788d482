"""Family construction, residual conditions, and the damped-Newton driver."""

import math
import os

import numpy as np
import pytest

from helikon import cli, divisor, paths, solver, surface
from helikon.divisor import residue
from helikon.errors import AbelViolation, CoincidentPoints, SingularJacobian
from helikon.expr import Plane, parse_expr
from helikon.paths import circle, generator, polyline
from helikon.scene import load_scene
from helikon.solver import (
    FamilySpec,
    HorizontalPeriod,
    asymptotic_residual,
    periodic_g1h_family,
    solve,
    standard_g1h_family,
)
from helikon.surface import WeierstrassData, period_triples

INIT = {"E1": 0.25 + 0.1j, "rho": 0.8, "c": 0.0}
# the candidate scene's root: E1 = 0.25+0.1i is pinned, (rho, c) solved for
ROOT_RHO, ROOT_C = 1.0, 2.0620003379782 - 1.5707963267949j
# (rho, c) points at which the closed-form period map is checked
POINTS = ((ROOT_RHO, ROOT_C), (0.8, 0j), (1.3, 0.2 - 0.1j))


# the closure on standard_g1h_family's two generators at tau = i, by direct
# quadrature: the reference for the family's closed form
BASE = -0.4871 - 0.3631j
GENERATORS = (
    HorizontalPeriod(polyline([BASE, BASE + 1])),
    HorizontalPeriod(polyline([BASE, BASE + 1j])),
)


CANDIDATE_SCENE = os.path.join(
    os.path.dirname(__file__), "..", "scenes", "periodic-candidate.scene"
)


def count_quadrature_runs(monkeypatch):
    """Record one entry per integrate_paths run, wherever it is called."""
    runs = []
    real = paths.integrate_paths

    def counting(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    for module in (paths, surface, divisor, solver):
        monkeypatch.setattr(module, "integrate_paths", counting)
    return runs


def toy_family(residual_fn, derivative_fn):
    """One real parameter x with a closed-form residual and derivative, so
    the driver itself is what gets exercised."""
    return FamilySpec(
        parameters=[("x", "real")],
        constructor=None,
        residual=lambda params: [residual_fn(params["x"])],
        jacobian=lambda params: [[derivative_fn(params["x"])]],
    )


def refusing_toy(error):
    """Root x = 1, residual x - 1 with a derivative of 1/2, so that the full
    first step from 0 lands at x = 2, where the residual raises error (for
    every x >= 1.5); also returns the list of trial points."""
    trials = []

    def residual(x):
        trials.append(x)
        if x >= 1.5:
            raise error("parameters left the feasible box")
        return x - 1.0

    return toy_family(residual, lambda x: 0.5), trials


class TestFamilyConstruction:
    def test_coincident_punctures_rejected(self):
        with pytest.raises(CoincidentPoints):
            periodic_g1h_family({"E1": 0.3, "E2": 0.3})
        with pytest.raises(CoincidentPoints):
            # coincide mod the lattice
            periodic_g1h_family({"E1": 0.3, "E2": 0.3 + 1 + 1j})

    def test_explicit_a_must_satisfy_abel(self):
        with pytest.raises(AbelViolation):
            periodic_g1h_family(
                {"E1": 0.2 + 0.1j, "zero_shifts": [0.37], "a": 0.0}
            )

    def test_degenerate_pair_warns_and_cancels(self):
        E1 = 0.1 + 0.2j
        with pytest.warns(UserWarning):
            data = periodic_g1h_family(
                {
                    "E1": E1,
                    "zero_shifts": [-E1 - 0.5, 0.4],
                    "pole_shifts": [E1 + 0.5, 0.4],
                }
            )
        # the coincident 0.4/0.4 pair drops out; Abel holds for the rest
        assert data.domain.punctures == (E1, -E1)

    def test_dh_residues_are_minus_plus_i(self):
        E1 = 0.11 + 0.13j
        data = periodic_g1h_family(
            {
                "E1": E1,
                "zero_shifts": [-E1 - 0.5],
                "pole_shifts": [E1 + 0.5],
                "c": 0.3 - 0.2j,
            }
        )
        E1, E2 = data.domain.punctures
        assert abs(residue(data.dh, E1, 0.05) - (-1j)) < 1e-10
        assert abs(residue(data.dh, E2, 0.05) - 1j) < 1e-10

    def test_g_is_single_valued(self):
        fam = standard_g1h_family(shift=0.5)
        data = fam.build(fam.pack(INIT))
        u = 0.21 + 0.43j
        v0 = data.g(u)
        assert abs(data.g(u + 1) / v0 - 1) < 1e-10
        assert abs(data.g(u + 1j) / v0 - 1) < 1e-10


class TestFamilySpec:
    def test_pack_unpack_round_trip(self):
        fam = standard_g1h_family()
        # E1 is construction data, not a slot: pack ignores the key
        x = fam.pack(INIT)
        assert x.size == 3
        back = fam.unpack(x)
        assert back == {"rho": INIT["rho"], "c": complex(INIT["c"])}

    def test_wrong_size_vector(self):
        fam = standard_g1h_family()
        with pytest.raises(ValueError):
            fam.unpack(np.zeros(5))

    def test_guard_rejects_small_rho(self):
        fam = standard_g1h_family()
        bad = dict(INIT, rho=0.01)
        with pytest.raises(CoincidentPoints):
            fam.residual_vector(fam.pack(bad))

    def test_guard_rejects_merging_punctures(self):
        # +-E1 within min_separation of each other, directly or modulo the
        # lattice: refused when the family is built
        for E1 in (0.01 + 0.01j, 0.5 + 0.01j, 0.49 + 0.5j):
            with pytest.raises(CoincidentPoints):
                standard_g1h_family(E1=E1)
        standard_g1h_family(E1=0.3j)

    def test_separation_on_skewed_lattice(self):
        # on tau = 3.4 + 0.3i, +-(1 + 0.025i) lie 0.05 apart modulo the
        # lattice, though the cell point of 2 E1 in <1, tau> lies 1.0012
        # from 0
        with pytest.raises(CoincidentPoints, match="0.05 apart"):
            standard_g1h_family(tau=3.4 + 0.3j, E1=1 + 0.025j)

    def test_residual_matches_quadrature(self):
        # the closed form against HorizontalPeriod on the built data, with
        # the unit member's integrals and the reference at the same tol
        for quad_tol in (1e-10, 1e-12):
            fam = standard_g1h_family(tau=1j, shift=0.5, quad_tol=quad_tol)
            for rho, c in POINTS:
                x = fam.pack({"rho": rho, "c": c})
                data = fam.build(x)
                ref = [v for cond in GENERATORS
                       for v in cond.evaluate(data, quad_tol)]
                assert np.abs(fam.residual_vector(x) - ref).max() < 1e-9

    def test_jacobian_matches_central_differences(self):
        fam = standard_g1h_family(tau=1j, shift=0.5)
        h = 1e-5
        for rho, c in POINTS:
            x = fam.pack({"rho": rho, "c": c})
            J = fam.jacobian_matrix(x)
            assert J.shape == (4, 3)
            fd = np.column_stack([
                (fam.residual_vector(x + h * e) - fam.residual_vector(x - h * e))
                / (2 * h)
                for e in np.eye(3)
            ])
            assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()


class TestResidualConditions:
    def test_horizontal_period_catenoid(self):
        dom = Plane((0,))
        data = WeierstrassData(
            g=parse_expr("u", dom),
            dh=parse_expr("1/u du", dom),
            basepoint=1.0,
        )
        cond = HorizontalPeriod(circle(0, 1.0))
        r = cond.evaluate(data, 1e-11)
        assert max(abs(v) for v in r) < 1e-10

    def test_asymptotic_residual_zero_for_helicoid_like_data(self):
        # dg/g - i dh = i du - i du = 0 identically
        plane = Plane()
        data = WeierstrassData(
            g=parse_expr("exp(i*u)", plane),
            dh=parse_expr("1 du", plane),
            basepoint=0.0,
        )
        assert asymptotic_residual(data, [0.5 + 0.5j]) < 1e-12

    def test_asymptotic_residual_vanishes_on_family(self):
        # the family construction cancels the dg/g residues (+1, -1) against
        # the -i * dh residues (-1, +1), so the defect is identically zero
        data = periodic_g1h_family(
            {"E1": 0.25 + 0.1j, "zero_shifts": [-0.75 - 0.1j],
             "pole_shifts": [0.75 + 0.1j], "rho": 0.8, "c": 0.0}
        )
        assert asymptotic_residual(data, data.domain.punctures) < 1e-10

    def test_asymptotic_residual_flags_wrong_dh_scale(self):
        from helikon.records import replace

        data = periodic_g1h_family(
            {"E1": 0.25 + 0.1j, "zero_shifts": [-0.75 - 0.1j],
             "pole_shifts": [0.75 + 0.1j], "rho": 0.8, "c": 0.0}
        )
        # doubling dh breaks the cancellation: residue defect 1 per puncture
        bad = replace(data, dh=data.dh.scale(2.0))
        val = asymptotic_residual(bad, bad.domain.punctures)
        assert abs(val - 1.0) < 1e-9


class TestDriver:
    def test_quadratic_toy_converges(self):
        fam = toy_family(lambda x: x * x - 4.0, lambda x: 2.0 * x)
        res = solve(fam, np.array([3.0]), tol=1e-12)
        assert res.converged
        assert abs(res.params[0] - 2.0) < 1e-10
        # monotone history
        assert all(b <= a for a, b in zip(res.history, res.history[1:]))

    def test_fixed_point_takes_zero_iterations(self):
        fam = toy_family(lambda x: 0.0, lambda x: 0.0)
        res = solve(fam, np.array([1.7]))
        assert res.converged and res.iterations == 0
        assert res.params[0] == 1.7

    def test_rootless_toy_raises(self):
        fam = toy_family(lambda x: x * x + 1.0, lambda x: 2.0 * x)
        with pytest.raises(SingularJacobian):
            solve(fam, np.array([0.5]), tol=1e-12, max_iter=60)

    def test_final_norm_recomputed(self):
        fam = toy_family(lambda x: x - 1.25, lambda x: 1.0)
        res = solve(fam, np.array([0.0]), tol=1e-13)
        assert abs(res.final_norm) < 1e-13
        assert res.history[-1] == res.final_norm

    def test_nan_residual_raises(self):
        # no trial lowers a nan norm, so the driver raises instead of
        # returning a result that merely reads "not converged"
        fam = toy_family(lambda x: math.nan, lambda x: 1.0)
        with pytest.raises(SingularJacobian):
            solve(fam, np.array([0.5]))

    def test_refused_trial_is_halved(self):
        # a refusal of helikon's own (here CoincidentPoints) counts as a
        # trial that does not lower the norm: the half step lands on the root
        fam, trials = refusing_toy(CoincidentPoints)
        res = solve(fam, np.array([0.0]), tol=1e-12)
        assert res.converged and res.params[0] == 1.0
        assert trials == [0.0, 2.0, 1.0, 1.0]
        assert res.history == [1.0, 0.0] and res.iterations == 1

    def test_residual_bug_propagates(self):
        # an error that is not helikon's own is a bug in the residual, not
        # a refused trial
        fam, trials = refusing_toy(TypeError)
        with pytest.raises(TypeError):
            solve(fam, np.array([0.0]), tol=1e-12)
        assert trials == [0.0, 2.0]


class TestPeriodProblem:
    def test_standard_family_solves(self):
        fam = standard_g1h_family(tau=1j, shift=0.5)
        res = solve(fam, INIT, tol=1e-8, max_iter=50)
        assert res.converged
        assert res.final_norm < 1e-8
        assert all(b <= a for a, b in zip(res.history, res.history[1:]))
        params = fam.unpack(res.params)
        assert abs(params["rho"] - ROOT_RHO) < 1e-9
        assert abs(params["c"] - ROOT_C) < 1e-9
        # one list of 3 singular values (one per unknown) per Newton step;
        # the last step's Jacobian is well conditioned
        assert len(res.singular_values) == res.iterations
        assert all(len(sv) == 3 for sv in res.singular_values)
        assert min(res.singular_values[-1]) >= 0.3
        # horizontal closure on both generators, by direct quadrature of
        # the solved data
        data = fam.build(res.params)
        for cond in GENERATORS:
            assert abs(complex(*cond.evaluate(data, 1e-10))) < 1e-7
        # the solved data still has the exact dh residues
        E1, E2 = data.domain.punctures
        assert abs(residue(data.dh, E1, 0.05) + 1j) < 1e-9
        assert abs(residue(data.dh, E2, 0.05) - 1j) < 1e-9

    def test_root_is_unique(self):
        # the same (rho, c) whatever the start and the quadrature tolerance
        for quad_tol in (1e-10, 1e-12):
            fam = standard_g1h_family(tau=1j, shift=0.5, quad_tol=quad_tol)
            for rho, c in ((0.8, 0j), (1.3, 0.2 - 0.1j), (0.5, -0.3j)):
                res = solve(fam, {"rho": rho, "c": c}, tol=1e-10)
                assert res.converged
                p = fam.unpack(res.params)
                assert abs(p["rho"] - ROOT_RHO) < 1e-10
                assert abs(p["c"] - ROOT_C) < 1e-10

    def test_one_quadrature_run_per_cycle(self, monkeypatch):
        # building the family integrates the unit member; residuals and
        # Jacobians are algebra on those integrals, with no quadrature
        runs = count_quadrature_runs(monkeypatch)
        fam = standard_g1h_family(tau=1j, shift=0.5)
        built = len(runs)
        assert built <= 2
        for rho, c in POINTS:
            x = fam.pack({"rho": rho, "c": c})
            fam.residual_vector(x)
            fam.jacobian_matrix(x)
        assert len(runs) == built

    def test_generator_triples_match_gauss_kronrod(self):
        # the marked generators take the periodic trapezoidal rule; the
        # plain Lines, adaptive Gauss-Kronrod at a tighter tol
        fam = standard_g1h_family(tau=1j, shift=0.5)
        scene_data = load_scene(CANDIDATE_SCENE).only_data()
        for data in (scene_data, fam.build(fam.pack({"rho": ROOT_RHO,
                                                     "c": ROOT_C}))):
            got = period_triples(
                data, [generator(BASE, 1), generator(BASE, 1j)], 1e-12
            )
            want = period_triples(data, [g.cycle for g in GENERATORS], 1e-13)
            assert np.abs(got - want).max() < 1e-12

    def test_asymptotic_residual_is_one_run(self, monkeypatch):
        fam = standard_g1h_family(tau=1j, shift=0.5)
        data = fam.build(fam.pack({"rho": ROOT_RHO, "c": ROOT_C}))
        runs = count_quadrature_runs(monkeypatch)
        assert asymptotic_residual(data, data.domain.punctures) < 1e-12
        assert len(runs) == 1

    def test_candidate_solve_runs(self, monkeypatch):
        # two runs build the family, one checks the end regularity
        scene = load_scene(CANDIDATE_SCENE)
        runs = count_quadrature_runs(monkeypatch)
        code, report = cli.run("solve", scene, {"json": False})
        assert code == 0 and report["verdict"]
        assert len(runs) <= 3
        res = report["results"]
        assert abs(res["parameters"]["rho"] - ROOT_RHO) < 1e-10
        assert abs(res["parameters"]["c"] - ROOT_C) < 1e-10
        assert res["asymptotic_residual"] < 1e-12
