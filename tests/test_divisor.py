"""Residues, divisor location/audit, Abel checks, fixed-point classifier."""

import cmath
import math
import os

import mpmath
import pytest

from helikon import divisor as divisor_module
from helikon.divisor import (
    IDENTICALLY_ZERO,
    REGULAR,
    SIMPLE_POLE,
    TWO_PI_I,
    ZERO_AT,
    _locate_with_base,
    abel_defect,
    check_abel,
    classify_fixed_point,
    classify_fixed_points,
    divisor_audit,
    exp_factor_coefficient,
    laurent_coefficient,
    locate_divisor,
    residue,
    residues,
)
from helikon.errors import (
    AbelViolation,
    ClusteredDivisor,
    DomainViolation,
    NoConvergence,
    NonFiniteSample,
    PoleAt,
    ZeroOnContour,
)
from helikon.expr import (
    Involution,
    Plane,
    differentiate,
    eval_expr,
    parse_expr,
    pullback,
    torus,
)
from helikon.lattice import Lattice
from helikon.paths import integrate_path, polyline
from helikon.scene import load_scene

LAT = Lattice(1j)
TORUS = torus(1j)


class TestResidue:
    def test_simple_pole(self):
        w = parse_expr("1/u du", Plane((0,)))
        assert abs(residue(w, 0.0, 0.4) - 1.0) < 1e-12

    def test_shifted_double_pole(self):
        w = parse_expr("1/(u - 0.5)^2 du", Plane((0.5,)))
        assert abs(residue(w, 0.5, 0.3)) < 1e-12

    def test_zeta_residue(self):
        w = parse_expr("zeta(u) du", TORUS)
        assert abs(residue(w, 0.0, 0.3) - 1.0) < 1e-11

    def test_laurent_coefficients(self):
        # (u - p)^-2 + 3 (u - p)^-1 + 5
        dom = Plane((0.25j,))
        w = parse_expr("1/(u - 0.25*i)^2 + 3/(u - 0.25*i) + 5 du", dom)
        assert abs(laurent_coefficient(w, 0.25j, -2, 0.1) - 1.0) < 1e-11
        assert abs(laurent_coefficient(w, 0.25j, -1, 0.1) - 3.0) < 1e-11
        assert abs(laurent_coefficient(w, 0.25j, 0, 0.1) - 5.0) < 1e-11


    def test_residues_of_many_points(self):
        dom = torus(1j, (0.3j, -0.3j))
        w = parse_expr("(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du", dom)
        points = [0.3j, -0.3j, 0.2]
        got = residues(w, points, 0.05)
        want = [residue(w, p, 0.05) for p in points]
        assert all(abs(a - b) <= 1e-15 for a, b in zip(got, want))
        assert abs(got[0] + 1j) < 1e-12 and abs(got[1] - 1j) < 1e-12
        assert abs(got[2]) < 1e-12


class TestDivisorLocation:
    def test_wp_divisor(self):
        dv, ok = divisor_audit(parse_expr("wp(u) du", TORUS))
        assert ok
        assert dv.pole_count() == 2
        assert dv.zero_count() == 2
        # wp's double pole sits on the lattice
        poles = dv.poles()
        assert len(poles) == 1 and poles[0][1] == 2
        assert LAT.same_point(poles[0][0], 0, 1e-6)

    def test_wp_prime_divisor(self):
        dv, ok = divisor_audit(parse_expr("wpp(u) du", TORUS))
        assert ok
        assert dv.pole_count() == 3
        assert dv.zero_count() == 3
        # zeros at the three half-periods
        zero_pts = [p for p, _ in dv.zeros()]
        for w in LAT.half_periods():
            assert any(LAT.same_point(z, w, 1e-6) for z in zero_pts)

    def test_zeta_difference_divisor(self):
        a = 0.3j
        dom = torus(1j, (a, -a))
        w = parse_expr("zeta(u - 0.3*i) - zeta(u + 0.3*i) du", dom)
        dv, ok = divisor_audit(w)
        assert ok
        assert dv.pole_count() == 2 and dv.zero_count() == 2
        pole_pts = [p for p, _ in dv.poles()]
        assert any(LAT.same_point(p, a, 1e-8) for p in pole_pts)
        assert any(LAT.same_point(p, -a, 1e-8) for p in pole_pts)

    def test_constant_has_no_divisor(self):
        dv, ok = divisor_audit(parse_expr("1 du", TORUS))
        assert ok and dv.entries == []

    def test_elliptic_function_degree(self):
        g = parse_expr(
            "sigma(u - 0.2)*sigma(u + 0.3)/(sigma(u + 0.2)*sigma(u - 0.3))",
            TORUS,
        )
        # not elliptic (Abel fails: sum of zeros != sum of poles mod lattice)
        # but the located divisor is still correct; the default 8x8 grid
        # puts the 0.2/0.3 pair in one cell (windings cancel), so refine
        dv = locate_divisor(g, grid=16)
        assert dv.zero_count() == 2 and dv.pole_count() == 2


class TestAbel:
    def test_defect_and_check(self):
        assert abel_defect([0.2, -0.2], [0.1, -0.1], LAT) < 1e-14
        check_abel([0.2, -0.2], [0.1, -0.1], LAT)
        with pytest.raises(AbelViolation):
            check_abel([0.2], [0.35], LAT)
        with pytest.raises(AbelViolation):
            check_abel([0.2, 0.1], [0.3], LAT)

    def test_defect_on_skewed_lattice(self):
        # 0.045i is 0.045 from the lattice of tau = 3.4 + 0.3i; its cell
        # point in the basis <1, tau> lies about 1 from 0
        lat = Lattice(3.4 + 0.3j)
        assert abs(abel_defect([0.045j], [0], lat) - 0.045) < 1e-12

    def test_lattice_shifted_divisor_allowed(self):
        check_abel([0.2 + 1j, -0.2], [0.1, -0.1 + 1.0], LAT)

    def test_exp_factor_makes_single_valued(self):
        zeros = [0.3j, -0.3j - 0.5]
        poles = [-0.3j, 0.3j + 0.5]
        a = exp_factor_coefficient(zeros, poles, LAT)
        # shift sum d = 1 here, so a = -eta1 = -pi at tau = i
        assert abs(a + math.pi) < 1e-12
        g = parse_expr(
            "exp((0-3.141592653589793)*u)*sigma(u-0.3*i)*sigma(u+0.3*i+0.5)"
            "/(sigma(u+0.3*i)*sigma(u-0.3*i-0.5))",
            TORUS,
        )
        u = 0.21 + 0.43j
        v0 = g(u)
        assert abs(g(u + 1) / v0 - 1) < 1e-12
        assert abs(g(u + 1j) / v0 - 1) < 1e-12


class TestClassifier:
    def test_three_analytic_cases(self):
        inv = Involution(0.0, Plane((0,)))
        du_over_u = parse_expr("1/u du", Plane((0,)))
        u_du = parse_expr("u du", Plane((0,)))
        du_over_u2 = parse_expr("1/u^2 du", Plane((0,)))
        assert classify_fixed_point(du_over_u, inv, 0.0) == SIMPLE_POLE
        assert classify_fixed_point(u_du, inv, 0.0) == ZERO_AT
        assert classify_fixed_point(du_over_u2, inv, 0.0) == IDENTICALLY_ZERO

    def test_elliptic_instance(self):
        # odd zeta-difference form: w + I*w vanishes identically; residue at
        # the fixed point 0 is zero, so the verdict follows the sym form
        dom = torus(1j, (0.3j, -0.3j))
        w = parse_expr("(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du", dom)
        inv = Involution(0.0, dom)
        assert classify_fixed_point(w, inv, 0.0) == IDENTICALLY_ZERO

    def test_even_coefficient_cancels(self):
        inv = Involution(0.0, Plane((0,)))
        w = parse_expr("1 du", Plane((0,)))
        # even coefficient: I*(du) = -du, so w + I*w vanishes identically
        assert classify_fixed_point(w, inv, 0.0) == IDENTICALLY_ZERO

    def test_fallthrough_case(self):
        inv = Involution(0.0, Plane((0,)))
        w = parse_expr("1/u^3 du", Plane((0,)))
        # residue-free triple pole: symmetrized form neither vanishes nor
        # decays toward the fixed point
        assert classify_fixed_point(w, inv, 0.0) == REGULAR

    @pytest.mark.parametrize(
        "text, punctures, center",
        [
            ("1/u du", (0,), 0.0),
            ("u du", (0,), 0.0),
            ("1/u^2 du", (0,), 0.0),
            ("1 du", (0,), 0.0),
            ("1/u^3 du", (0,), 0.0),
            ("(u + 0.3)^2 du", (0,), 0.0),
            ("(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du", None, 0.0),
            ("wp(u) du", None, 0.0),
            ("wp(u - 0.1) du", None, 0.0),
            ("(wp(u) + zeta(u - 0.1)) du", None, 0.2 + 0.1j),
        ],
    )
    def test_matches_per_point_reference(self, text, punctures, center):
        if punctures is None:
            dom = torus(1j, (0.3j, -0.3j))
        else:
            dom = Plane(punctures)
        w = parse_expr(text, dom)
        inv = Involution(center, dom)
        cases = []
        for p in inv.fixed_points:
            try:
                want = reference_classify(w, inv, p)
            except (PoleAt, DomainViolation):
                continue
            assert classify_fixed_point(w, inv, p) == want
            cases.append(want)
        if len(cases) == len(inv.fixed_points):
            assert classify_fixed_points(w, inv, inv.fixed_points) == cases

    def test_one_residue_run_for_all_points(self, monkeypatch):
        runs = []
        integrate = divisor_module.integrate_paths

        def counted(*args, **kwargs):
            runs.append(len(args[1]))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(divisor_module, "integrate_paths", counted)
        dom = torus(1j, (0.3j, -0.3j))
        w = parse_expr("(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du", dom)
        inv = Involution(0.0, dom)
        cases = classify_fixed_points(w, inv, inv.fixed_points)
        assert cases == [IDENTICALLY_ZERO] * 4
        assert runs == [4]


def reference_classify(w, inv, p, radius=0.05, res_tol=1e-8):
    """classify_fixed_point with one eval_expr call per sample point."""
    p = complex(p)
    sym = w + pullback(w, inv)
    if abs(residue(w, p, radius)) > res_tol:
        return SIMPLE_POLE
    samples = []
    for r in (radius, 0.5 * radius):
        for k in range(8):
            z = p + r * cmath.exp(2j * cmath.pi * (k + 0.37) / 8)
            samples.append(abs(eval_expr(sym, z)))
    if max(samples) < 1e-9:
        return IDENTICALLY_ZERO
    m_outer = max(
        abs(eval_expr(sym, p + 1e-3 * cmath.exp(2j * cmath.pi * k / 6)))
        for k in range(6)
    )
    m_inner = max(
        abs(eval_expr(sym, p + 1e-4 * cmath.exp(2j * cmath.pi * k / 6)))
        for k in range(6)
    )
    if m_inner < 0.2 * m_outer:
        return ZERO_AT
    return REGULAR


def _cell_contour(base, e1, e2, s0, t0, s1, t1):
    """The closed four-sided contour of one grid cell, counterclockwise."""
    corners = [
        base + s0 * e1 + t0 * e2,
        base + s1 * e1 + t0 * e2,
        base + s1 * e1 + t1 * e2,
        base + s0 * e1 + t1 * e2,
    ]
    return polyline(corners, closed=True)


def _reference_winding(f, fp, contour, tol=2e-3):
    """One cell's winding from its own quadrature run."""
    try:
        val = integrate_path(
            lambda z: eval_expr(fp, z) / eval_expr(f, z), contour, tol
        )
    except (
        NonFiniteSample, NoConvergence, PoleAt, DomainViolation,
        ZeroDivisionError,
    ) as exc:
        raise ZeroOnContour(str(exc)) from exc
    w = (val / TWO_PI_I).real
    k = round(w)
    if abs(w - k) > 0.2:
        raise ZeroOnContour(f"non-integer winding {w:.3f}")
    return k


def _reference_with_base(f, fp, tau, base, grid):
    e1, e2 = 1.0 + 0.0j, tau
    hot = []
    for iy in range(grid):
        for ix in range(grid):
            cell = (ix / grid, iy / grid, (ix + 1) / grid, (iy + 1) / grid)
            k = _reference_winding(f, fp, _cell_contour(base, e1, e2, *cell))
            if k != 0:
                hot.append((*cell, k))
    refined = []
    for s0, t0, s1, t1, k in hot:
        # the quarter points of the cell's sides, each side halved twice
        sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
        ss = (s0, 0.5 * (s0 + sm), sm, 0.5 * (sm + s1), s1)
        ts = (t0, 0.5 * (t0 + tm), tm, 0.5 * (tm + t1), t1)
        found = 0
        for j in range(4):
            for i in range(4):
                cell = (ss[i], ts[j], ss[i + 1], ts[j + 1])
                kk = _reference_winding(
                    f, fp, _cell_contour(base, e1, e2, *cell)
                )
                if kk != 0:
                    refined.append((*cell, kk))
                    found += kk
        if found != k:
            raise ZeroOnContour("subdivision lost winding")
    return refined


def reference_hot_cells(form, grid=8, jitter_tries=5):
    """The grid base and the hot 1/(4 grid) subcells (s0, t0, s1, t1, k)
    of locate_divisor, with one quadrature run per cell."""
    f = form.coeff
    fp = differentiate(f)
    lat = f.domain.lattice
    for attempt in range(jitter_tries):
        base = (0.05371 + 0.03813 * attempt) + (
            0.04629 + 0.02971 * attempt
        ) * lat.tau
        try:
            return base, _reference_with_base(f, fp, lat.tau, base, grid)
        except ZeroOnContour:
            continue
    raise ZeroOnContour("grid jitter exhausted")


def assert_matches_reference(dv, form):
    """Each entry of dv lies in its own hot subcell of the per-cell
    reference, with that subcell's winding as its order."""
    base, hot = reference_hot_cells(form)
    tau = form.coeff.domain.lattice.tau
    found = []
    for p, n in dv.entries:
        d = p - base
        t = d.imag / tau.imag
        s = d.real - t * tau.real
        cells = [
            c for c in hot
            if c[0] - 1e-9 <= s <= c[2] + 1e-9
            and c[1] - 1e-9 <= t <= c[3] + 1e-9
        ]
        assert len(cells) == 1 and cells[0][4] == n, (p, n, cells)
        found.append(cells[0])
    assert sorted(found) == sorted(hot)


def mpmath_wp(tau):
    """wp(u) on the lattice <1, tau> from mpmath.jtheta."""
    pi = mpmath.pi
    q = mpmath.exp(1j * pi * mpmath.mpc(tau.real, tau.imag))
    eta1 = -pi**2 / 3 * mpmath.jtheta(1, 0, q, 3) / mpmath.jtheta(1, 0, q, 1)

    def wp(u):
        t0, t1, t2 = (mpmath.jtheta(1, pi * u, q, k) for k in range(3))
        return -eta1 - pi**2 * (t2 * t0 - t1**2) / t0**2

    return wp


def closed_form_entries(text, tau, near):
    """The divisor of wp du or wpp du: the pole of order 2 or 3 at 0, wp's
    zeros (the double zero (1 + i)/2 at tau = i, else mpmath roots polished
    from near) or wp''s simple zeros at the half-periods."""
    if text == "wpp(u) du":
        return [(0j, -3), (0.5, 1), (tau / 2, 1), ((1 + tau) / 2, 1)]
    if tau == 1j:
        return [(0j, -2), ((1 + 1j) / 2, 2)]
    with mpmath.workdps(30):
        wp = mpmath_wp(tau)
        roots = [complex(mpmath.findroot(wp, mpmath.mpc(z.real, z.imag)))
                 for z in near]
    return [(0j, -2)] + [(z, 1) for z in roots]


CANDIDATE_SCENE = os.path.join(
    os.path.dirname(__file__), "..", "scenes", "periodic-candidate.scene"
)
# the first grid's base at tau = i and a point on its bottom edge
FIRST_BASE = 0.05371 + 0.04629j
EDGE_ZERO = "0.24121 + 0.04629*i"  # FIRST_BASE + 3/16


def distance(a, b, tau):
    """|a - b| modulo the lattice <1, tau>."""
    return Lattice(tau).distance(complex(a), complex(b))


def assert_entries_near(entries, want, tau, tol):
    """entries and want hold the same orders at points within tol modulo
    the lattice, in any order."""
    assert len(entries) == len(want)
    for p, n in entries:
        assert any(
            m == n and distance(p, w, tau) <= tol for w, m in want
        ), (p, n, want)


def complex_text(z):
    """The complex z as expression text, to the last bit."""
    return f"({z.real!r} + {z.imag!r}*i)"


def sigma_pair(a, b):
    """sigma(u - a) sigma(u - b) / sigma(u)^2 du: simple zeros at a and b,
    a double pole at 0."""
    a, b = complex_text(a), complex_text(b)
    return parse_expr(f"sigma(u - {a})*sigma(u - {b})/sigma(u)^2 du", TORUS)


def first_grid_point(s, t):
    """The point FIRST_BASE + s + t i of the first grid at tau = i."""
    return FIRST_BASE + s + t * 1j


class TestBatchedDivisor:
    @pytest.mark.parametrize("tau", (1j, 0.3 + 0.8j, 0.1 + 0.2j))
    @pytest.mark.parametrize("text", ("wp(u) du", "wpp(u) du"))
    def test_matches_per_cell_reference(self, text, tau):
        # the per-cell reference pins the hot subcells and their orders;
        # the points match the closed forms (mpmath for wp's simple zeros),
        # to 1e-11 at tau = 0.1 + 0.2i, where the kernels' accuracy limits
        # wp' near its zeros
        form = parse_expr(text, torus(tau))
        dv = locate_divisor(form)
        assert_matches_reference(dv, form)
        want = closed_form_entries(text, tau, [p for p, _ in dv.zeros()])
        tol = 1e-11 if tau == 0.1 + 0.2j else 1e-12
        assert_entries_near(dv.entries, want, tau, tol)

    def test_candidate_dh_matches_per_cell_reference(self):
        # simple poles at the punctures +-0.3i; dh is even, so its two
        # zeros are z and -z, and Newton's step from each is below 1e-12
        dh = load_scene(CANDIDATE_SCENE).only_data().dh
        dv = locate_divisor(dh)
        assert_matches_reference(dv, dh)
        f = dh.coeff
        fp = differentiate(f)
        assert_entries_near(dv.poles(), [(0.3j, 1), (-0.3j, 1)], 1j, 1e-12)
        (z, m), (z2, m2) = dv.zeros()
        assert m == m2 == 1 and distance(z, -z2, 1j) <= 1e-12
        for z, _ in dv.zeros():
            assert abs(eval_expr(f, z) / eval_expr(fp, z)) <= 1e-12

    def test_candidate_dh_poles_in_order(self):
        # the poles +-0.3i reduce to 1 + 0.3i and 1 + 0.7i, whose computed
        # real parts differ in the last bits; the entries are sorted by
        # (Re, Im) rounded to 1e-9, so 1 + 0.3i comes first
        dh = load_scene(CANDIDATE_SCENE).only_data().dh
        poles = locate_divisor(dh).poles()
        assert len(poles) == 2
        for (p, m), want in zip(poles, (1 + 0.3j, 1 + 0.7j)):
            assert m == 1 and abs(p - want) <= 1e-12, poles

    def test_zero_on_first_grid_edge_jitters(self):
        # sigma(u - z) sigma(u + z) / sigma(u)^2 vanishes at +-z, and z lies
        # on the bottom edge of the first grid
        form = parse_expr(
            f"sigma(u - ({EDGE_ZERO}))*sigma(u + ({EDGE_ZERO}))/sigma(u)^2 du",
            TORUS,
        )
        f = form.coeff
        with pytest.raises(ZeroOnContour):
            _locate_with_base(f, differentiate(f), LAT, FIRST_BASE, 8)
        dv = locate_divisor(form)
        assert_matches_reference(dv, form)
        z = 0.24121 + 0.04629j
        assert_entries_near(dv.entries, [(z, 1), (-z, 1), (0j, -2)], 1j, 1e-12)

    def test_pole_on_first_grid_edge_jitters(self, monkeypatch):
        # wp(u - s) has its double pole at s, on the bottom edge of the
        # first grid (s = FIRST_BASE + 0.3), and its double zero at
        # s + (1 + i)/2: the first grid fails, the second finds both
        s = FIRST_BASE + 0.3
        bases = []
        locate = divisor_module._locate_with_base

        def recorded(*args, **kwargs):
            bases.append(args[3])
            return locate(*args, **kwargs)

        monkeypatch.setattr(divisor_module, "_locate_with_base", recorded)
        form = parse_expr(f"wp(u - ({s.real!r} + {s.imag!r}*i)) du", TORUS)
        dv = locate_divisor(form)
        assert bases == [FIRST_BASE, 0.09184 + 0.076j]
        assert_entries_near(
            dv.entries, [(s, -2), (s + 0.5 + 0.5j, 2)], 1j, 1e-12
        )

    def test_zero_on_interior_subcell_line_jitters(self, monkeypatch):
        # z lies on the line t = 1/32 inside the first grid's hot cell
        # [0, 1/8]^2: a side of that cell's 4 x 4 subcells, but of no grid
        # cell, so the first grid fails in its subcell run; the second
        # grid finds +-z and the double pole at 0
        z = first_grid_point(0.03, 1 / 32)
        text = complex_text(z)
        form = parse_expr(
            f"sigma(u - {text})*sigma(u + {text})/sigma(u)^2 du", TORUS
        )
        f = form.coeff
        cells = []
        windings = divisor_module._cell_windings

        def counted(*args, **kwargs):
            cells.append(len(args[5]))
            return windings(*args, **kwargs)

        monkeypatch.setattr(divisor_module, "_cell_windings", counted)
        with pytest.raises(ZeroOnContour):
            _locate_with_base(f, differentiate(f), LAT, FIRST_BASE, 8)
        # the grid, then 16 subcells of each hot cell: z's, -z's and 0's
        assert cells == [64, 48]
        dv = locate_divisor(form)
        assert_matches_reference(dv, form)
        assert_entries_near(dv.entries, [(z, 1), (-z, 1), (0j, -2)], 1j, 1e-12)

    def test_quadrature_runs_per_grid(self, monkeypatch):
        # one run for the grid and one for the 4 x 4 subcells of its hot
        # cells, over the distinct cell sides (8 x 9 horizontal and 9 x 8
        # vertical ones on the grid), and one over the hot subcells' circles
        runs, attempts = [], []
        integrate, locate = (
            divisor_module.integrate_paths, divisor_module._locate_with_base
        )

        def counted_integrate(*args, **kwargs):
            runs.append(len(args[1]))
            return integrate(*args, **kwargs)

        def counted_locate(*args, **kwargs):
            attempts.append(args[3])
            return locate(*args, **kwargs)

        monkeypatch.setattr(divisor_module, "integrate_paths", counted_integrate)
        monkeypatch.setattr(divisor_module, "_locate_with_base", counted_locate)
        dv, ok = divisor_audit(parse_expr("wp(u) du", TORUS))
        assert ok and attempts
        assert len(runs) <= 3 * len(attempts)
        assert runs[0] == 144
        # the moments: one circle per hot subcell, the double pole at 0
        # and the double zero at (1 + i)/2
        assert runs[-1] == 2

    def test_one_evaluation_per_integrand_call(self, monkeypatch):
        # f'/f comes from one joint evaluation of f and f' on the points
        integrand_calls, evals = {}, []
        integrate, evaluate = (
            divisor_module.integrate_paths, divisor_module.eval_expr
        )

        def counted_integrate(integrand, *args, **kwargs):
            name = integrand.__qualname__.split(".")[0]

            def counted(z):
                integrand_calls[name] = integrand_calls.get(name, 0) + 1
                return integrand(z)

            return integrate(counted, *args, **kwargs)

        def counted_eval(e, u):
            evals.append(len(e) if isinstance(e, tuple) else 1)
            return evaluate(e, u)

        monkeypatch.setattr(divisor_module, "integrate_paths", counted_integrate)
        monkeypatch.setattr(divisor_module, "eval_expr", counted_eval)
        dv, ok = divisor_audit(parse_expr("wp(u) du", TORUS))
        assert ok
        assert set(integrand_calls) == {"_cell_windings", "_moment_points"}
        assert evals == [2] * sum(integrand_calls.values())

    def test_clustered_points_fall_back_to_cell_sides(self, monkeypatch):
        # the zeros a and b = a + 0.03 sit in neighbouring subcells, and b
        # lies inside a's circle, so that subcell's m0 is 2, not 1: its
        # moments come from its own four sides instead
        a, b = 0.4 + 0.3j, 0.43 + 0.3j
        sides = []
        integrals = divisor_module._cell_integrals

        def counted(integrand, base, e1, e2, cells, tol):
            sides.append((len(cells), tol))
            return integrals(integrand, base, e1, e2, cells, tol)

        monkeypatch.setattr(divisor_module, "_cell_integrals", counted)
        dv = locate_divisor(sigma_pair(a, b))
        assert (1, divisor_module.MOMENT_TOL) in sides
        assert_entries_near(
            dv.entries, [(a, 1), (b, 1), (0j, -2)], 1j, 1e-12
        )

    def test_distinct_points_in_one_cell_raise(self):
        # zeros 0.015 apart in one subcell of the 8 x 8 grid spread
        # 0.015^2 / 4 = 5.6e-5 (Newton used to return one of them as a
        # double zero); the 16 x 16 grid puts them in two subcells
        a, b = 0.4 + 0.3j, 0.415 + 0.3j
        form = sigma_pair(a, b)
        with pytest.raises(ClusteredDivisor):
            locate_divisor(form)
        dv = locate_divisor(form, grid=16)
        assert_entries_near(
            dv.entries, [(a, 1), (b, 1), (0j, -2)], 1j, 1e-12
        )

    def test_zero_pole_pair_sharing_a_sixteenth_subcell(self):
        # the zero a and the pole c share a 1/16 subcell of the hot cell
        # [1/4, 3/8]^2 of the first grid, where their windings cancel, but
        # lie in different 1/32 subcells; every subcell of a hot cell is
        # searched, so both are found, not only the verdict's counts
        a, b, e = (first_grid_point(x, x) for x in (0.27, 0.35, 0.7))
        c, p = first_grid_point(0.29, 0.27), first_grid_point(0.7, 0.2)
        d = a + b + e - c - p
        k = exp_factor_coefficient([a, b, e], [c, p, d], LAT)
        num = "*".join(f"sigma(u - {complex_text(x)})" for x in (a, b, e))
        den = "*".join(f"sigma(u - {complex_text(x)})" for x in (c, p, d))
        form = parse_expr(f"exp({complex_text(k)}*u)*{num}/({den}) du", TORUS)
        dv, ok = divisor_audit(form)
        assert ok
        assert_matches_reference(dv, form)
        want = [(a, 1), (b, 1), (e, 1), (c, -1), (p, -1), (d, -1)]
        assert_entries_near(dv.entries, want, 1j, 1e-12)
