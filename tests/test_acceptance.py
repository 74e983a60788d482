"""Acceptance gate: the nine end-to-end criteria with pinned tolerances.

Each test states its tolerance and wall-clock budget inline; the suite is
meant to run on a desk machine with no network access.
"""

import cmath
import math
import os
import time

import numpy as np
import pytest

from helikon.cli import _report_json, run
from helikon.divisor import (
    IDENTICALLY_ZERO,
    SIMPLE_POLE,
    ZERO_AT,
    check_abel,
    classify_fixed_point,
    divisor_audit,
    residue,
)
from helikon.errors import AbelViolation
from helikon.expr import Involution, Plane, parse_expr, torus
from helikon.kernels import sigma_w, wp, wp_prime, zeta_w
from helikon.lattice import Lattice
from helikon.mesh import (
    SamplingSpec,
    build_mesh,
    lambda_sweep,
    probe_self_intersection,
)
from helikon.paths import circle, polyline
from helikon.scene import load_scene
from helikon.solver import periodic_g1h_family, solve, standard_g1h_family
from helikon.surface import (
    CycleBasis,
    WeierstrassData,
    _generic_samples,
    flux,
    immerse,
    involution_report,
    lopez_ros,
    period_report,
    symmetry_verify,
)

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


class Budget:
    """Wall-clock budget context; asserts on exit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, (
                f"runtime budget exceeded: {elapsed:.1f}s > {self.seconds}s"
            )
        return False


def test_criterion_1_elliptic_kernel_suite():
    """Identities to 1e-10, finite differences to 1e-6; < 5 s."""
    with Budget(5):
        for tau in (1j, 0.31 + 1.17j):
            lat = Lattice(tau)
            # Legendre relation
            assert abs(lat.eta1 * lat.tau - lat.eta2 - 2j * math.pi) < 1e-10
            u = 0.23 + 0.41j
            # quasi-periodicity of zeta and sigma
            assert abs(zeta_w(u + 1, lat) - zeta_w(u, lat) - lat.eta1) < 1e-10
            assert abs(zeta_w(u + tau, lat) - zeta_w(u, lat) - lat.eta2) < 1e-10
            for eta, w in ((lat.eta1, 1.0), (lat.eta2, tau)):
                lhs = sigma_w(u + w, lat)
                rhs = -sigma_w(u, lat) * cmath.exp(eta * (u + w / 2))
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))
            # parity
            assert abs(wp(u, lat) - wp(-u, lat)) < 1e-10
            assert abs(wp_prime(u, lat) + wp_prime(-u, lat)) < 1e-10
            # zeta' = -wp by finite differences
            h = 1e-6
            fd = (zeta_w(u + h, lat) - zeta_w(u - h, lat)) / (2 * h)
            assert abs(fd + wp(u, lat)) < 1e-6


def test_criterion_2_helicoid_closed_form():
    """Immersion to 1e-9 on a 10x10 grid; symmetry deviation < 1e-9; < 5 s."""
    with Budget(5):
        plane = Plane()
        data = WeierstrassData(
            g=parse_expr("exp(i*u)", plane),
            dh=parse_expr("1 du", plane),
            basepoint=0.0,
        )
        for x in np.linspace(-2.0, 2.0, 10):
            for y in np.linspace(-1.0, 1.0, 10):
                u = complex(x, y)
                got = immerse(data, u)
                ref = np.array(
                    [
                        math.sin(x) * math.sinh(y),
                        -math.cos(x) * math.sinh(y),
                        x,
                    ]
                )
                assert np.linalg.norm(got - ref) < 1e-9
        inv = Involution(0.0, plane)
        samples = [
            (p, polyline([0, p]))
            for p in (0.7 + 0.4j, -1.1 + 0.8j, 1.9 - 0.6j, 0.2 - 0.9j)
        ]
        assert symmetry_verify(data, inv, samples) < 1e-9


def test_criterion_3_catenoid_suite():
    """Period residuals < 1e-10; flux (0,0,2pi) to 1e-9; Lopez-Ros at
    lambda = 2 and 0.5 preserves residuals < 1e-10; < 5 s."""
    with Budget(5):
        dom = Plane((0,))
        data = WeierstrassData(
            g=parse_expr("u", dom),
            dh=parse_expr("1/u du", dom),
            basepoint=1.0,
        )
        basis = CycleBasis([circle(0, 1.0)], ["neck"])
        assert period_report(data, basis).max_residual < 1e-10
        f1, f2, f3 = tuple(flux(data, circle(0, 1.0)))
        assert abs(f1) < 1e-9 and abs(f2) < 1e-9
        assert abs(f3 - 2 * math.pi) < 1e-9
        for lam in (2.0, 0.5):
            deformed = lopez_ros(data, lam)
            assert period_report(deformed, basis).max_residual < 1e-10


def test_criterion_4_fixed_point_classifier():
    """du/u, u du, du/u^2 -> SimplePole / ZeroAt / IdenticallyZero, plus an
    elliptic zeta-difference instance consistent with its residue; < 5 s."""
    with Budget(5):
        dom = Plane((0,))
        inv = Involution(0.0, dom)
        cases = [
            ("1/u du", SIMPLE_POLE),
            ("u du", ZERO_AT),
            ("1/u^2 du", IDENTICALLY_ZERO),
        ]
        for text, want in cases:
            w = parse_expr(text, dom)
            assert classify_fixed_point(w, inv, 0.0) == want
        # elliptic instance: the odd zeta-difference height form; residue at
        # the fixed point 0 is zero and the symmetrized form vanishes
        tdom = torus(1j, (0.3j, -0.3j))
        w = parse_expr("(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du", tdom)
        tinv = Involution(0.0, tdom)
        assert abs(residue(w, 0.0, 0.1)) < 1e-10
        assert classify_fixed_point(w, tinv, 0.0) == IDENTICALLY_ZERO


def test_criterion_5_involution_identity_suite():
    """Symmetric periodic family at tau = i: odd dh and dg/g to 1e-8,
    g(I(p)) g(p) constant to 1e-8 over 20 samples, dh residues -i/+i to
    1e-10; < 20 s."""
    with Budget(20):
        E1 = 0.3j
        data = periodic_g1h_family(
            {
                "tau": 1j,
                "E1": E1,
                "zero_shifts": [-E1 - 0.5],
                "pole_shifts": [E1 + 0.5],
            }
        )
        inv = Involution(0.0, data.domain)
        rep = involution_report(data, inv, tol=1e-8, n_samples=20)
        assert rep.dh_dev < 1e-8
        assert rep.dgg_dev < 1e-8
        assert rep.c_dev < 1e-8
        assert abs(residue(data.dh, E1, 0.05) - (-1j)) < 1e-10
        assert abs(residue(data.dh, -E1, 0.05) - 1j) < 1e-10


def test_criterion_6_divisor_audits():
    """wp du and wpp du pass #zeros = #poles; an Abel-violating divisor is
    rejected; < 30 s."""
    with Budget(30):
        tdom = torus(1j)
        for text, degree in (("wp(u) du", 2), ("wpp(u) du", 3)):
            dv, ok = divisor_audit(parse_expr(text, tdom))
            assert ok
            assert dv.zero_count() == dv.pole_count() == degree
        lat = Lattice(1j)
        with pytest.raises(AbelViolation):
            check_abel([0.2], [0.35], lat)
        with pytest.raises(AbelViolation):
            periodic_g1h_family(
                {"E1": 0.2 + 0.1j, "zero_shifts": [0.37], "a": 0.0}
            )


def test_criterion_7_period_solver():
    """From the symmetric initialization on tau = i the residual norm
    (horizontal period closure on both generators) decreases monotonically
    and reaches < 1e-8 within 50 iterations; the returned residual
    recomputes identically; < 5 min."""
    with Budget(300):
        fam = standard_g1h_family(tau=1j, shift=0.5)
        init = {"E1": 0.25 + 0.1j, "rho": 0.8, "c": 0.0}
        res = solve(fam, init, tol=1e-8, max_iter=50)
        assert res.converged
        assert res.iterations <= 50
        assert res.final_norm < 1e-8
        assert all(b <= a for a, b in zip(res.history, res.history[1:]))
        recomputed = float(np.linalg.norm(fam.residual_vector(res.params)))
        assert recomputed == res.final_norm


def enneper_closed_form(u):
    return np.array(
        [
            0.5 * (u - u**3 / 3).real,
            -0.5 * (u + u**3 / 3).imag,
            0.5 * (u * u).real,
        ]
    )


def test_criterion_8_embeddedness_probe():
    """Helicoid embedded; Enneper on |u| <= 2 non-embedded with a pair
    confirmed by an independent two-point root-finding oracle to 1e-6;
    lambda sweep brackets the verdict flip to < 1% width with period
    residuals < 1e-8 throughout; < 5 min at 80x80."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    with Budget(300):
        plane = Plane()
        heli = WeierstrassData(
            g=parse_expr("exp(i*u)", plane),
            dh=parse_expr("1 du", plane),
            basepoint=0.0,
        )
        spec = SamplingSpec(-math.pi, math.pi, -1.0, 1.0, nx=80, ny=80)
        rep = probe_self_intersection(
            build_mesh(heli, spec), delta_ext=0.05, delta_int=1.0
        )
        assert rep.embedded

        enneper = WeierstrassData(
            g=parse_expr("u", plane),
            dh=parse_expr("u du", plane),
            basepoint=0.0,
            label="enneper",
        )
        espec = SamplingSpec(-2, 2, -2, 2, nx=80, ny=80)
        mesh = build_mesh(enneper, espec)
        rep = probe_self_intersection(mesh, delta_ext=0.05, delta_int=2.0)
        assert not rep.embedded and rep.pairs
        a, b, _, _ = rep.pairs[0]
        ua, ub = mesh.vertices[a][0], mesh.vertices[b][0]

        # independent oracle: polish F(u1) = F(u2) on the closed form
        def residual(x):
            u1, u2 = complex(x[0], x[1]), complex(x[2], x[3])
            return enneper_closed_form(u1) - enneper_closed_form(u2)

        sol = scipy_opt.least_squares(
            residual,
            [ua.real, ua.imag, ub.real, ub.imag],
            xtol=1e-14,
            ftol=1e-14,
        )
        u1 = complex(sol.x[0], sol.x[1])
        u2 = complex(sol.x[2], sol.x[3])
        assert np.linalg.norm(residual(sol.x)) < 1e-6
        assert abs(u1 - u2) > 0.5  # a genuine two-point coincidence
        assert abs(u1 - ua) < 0.1 and abs(u2 - ub) < 0.1

        # sweep: Enneper has no cycles, so the flux condition is vacuous;
        # the embedded verdict flips between lambda = 0.5 and 1.0
        sweep_spec = SamplingSpec(-2, 2, -2, 2, nx=48, ny=48)
        res = lambda_sweep(
            enneper,
            [0.5, 1.0],
            sweep_spec,
            basis=CycleBasis([], []),
            delta_ext=0.05,
            delta_int=2.0,
            tol=1e-8,
        )
        verdicts = [emb for _, emb, _ in res.table]
        assert verdicts == [True, False]
        assert all(resid < 1e-8 for _, _, resid in res.table)
        assert res.bracket is not None
        lo, hi = res.bracket
        assert hi - lo < 0.01 * lo


SCENE_COMMANDS = {
    "helicoid.scene": ["periods", "flux", "symmetry", "mesh", "probe"],
    "catenoid.scene": ["periods", "flux", "mesh", "sweep"],
    "periodic-candidate.scene": [
        "involution", "audit", "classify-fixed", "residues", "solve",
    ],
}


def test_criterion_9_deterministic_reports():
    """Two consecutive runs of every bundled scene produce byte-identical
    JSON reports."""
    flags = {"json": False}
    for scene_file, commands in SCENE_COMMANDS.items():
        scene = load_scene(os.path.join(SCENES, scene_file))
        for command in commands:
            _, rep1 = run(command, scene, flags)
            _, rep2 = run(command, load_scene(
                os.path.join(SCENES, scene_file)
            ), flags)
            assert _report_json(rep1) == _report_json(rep2), (
                f"{scene_file}:{command} report bytes differ"
            )
