"""Kernel-level checks: identities and oracles.

The brute-force Eisenstein oracle recomputes wp by paired lattice sums with
Richardson extrapolation — an implementation path disjoint from the theta
series, used to pin absolute values.  The mpmath oracle evaluates the same
theta formulas (DLMF 23.6) at 30 digits, with no cell reduction and no
truncation of its own choosing.
"""

import cmath
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from helikon.errors import InvalidModulus, PoleAt
from helikon.expr import Torus
from helikon.kernels import (
    KERNEL_SLICE,
    Cells,
    Rows,
    reduce_to_cell,
    sigma_w,
    wp,
    wp_prime,
    zeta_w,
)
from helikon.lattice import Lattice

TAU_SQUARE = 1j
TAU_GENERIC = 0.31 + 1.17j

# [DERIVED] brute-force Eisenstein oracle (paired lattice sums, Richardson
# extrapolated over N in {25, 50, 100, 200}), frozen 2024-08; agrees with
# the closed form Gamma(1/4)^8 / (960 pi^2) + ... at tau = i.
E1_TAU_I = 6.8751858180203715


@pytest.fixture(scope="module")
def lat_i():
    return Lattice(TAU_SQUARE)


@pytest.fixture(scope="module")
def lat_g():
    return Lattice(TAU_GENERIC)


def eisenstein_wp(u, tau, n_values=(25, 50, 100, 200)):
    """Brute-force wp(u) by symmetric lattice sums + tail-power fit."""
    u = complex(u)
    estimates = []
    for N in n_values:
        m, n = np.meshgrid(np.arange(-N, N + 1), np.arange(-N, N + 1))
        w = m + n * tau
        mask = (m != 0) | (n != 0)
        w = w[mask]
        total = 1.0 / u**2 + np.sum(1.0 / (u - w) ** 2 - 1.0 / w**2)
        estimates.append(total)
    # least-squares fit of estimate(N) = L + a N^-2 + b N^-3 + c N^-4
    A = np.array(
        [[1.0, N**-2.0, N**-3.0, N**-4.0] for N in n_values], dtype=complex
    )
    coef, *_ = np.linalg.lstsq(A, np.array(estimates), rcond=None)
    return coef[0]


class TestLattice:
    def test_legendre_relation(self, lat_i, lat_g):
        for lat in (lat_i, lat_g):
            assert abs(lat.eta1 * lat.tau - lat.eta2 - 2j * math.pi) < 1e-10

    def test_eta1_at_square_torus(self, lat_i):
        # eta1 = pi exactly at tau = i
        assert abs(lat_i.eta1 - math.pi) < 1e-12

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            Lattice(0.5 - 0.2j)
        with pytest.raises(InvalidModulus):
            Lattice(1.0 + 0.0j)

    @pytest.mark.parametrize(
        "tau", [complex(0, math.nan), complex(math.nan, 1),
                complex(0, math.inf), complex(math.inf, 1)],
    )
    def test_non_finite_modulus(self, tau):
        # a nan Im(tau) passed the Im(tau) floor and hung term_count
        with pytest.raises(InvalidModulus):
            Lattice(tau)

    @pytest.mark.parametrize(
        "tau", [0.001j, 1000j, 0.5 + 1e-300j, 1e-310 + 1e-310j])
    def test_too_thin_modulus(self, tau):
        # a tau with Im(tau) > 0 is accepted up to a reduced Im(tau') of 100,
        # past which the series leave the normal doubles; at 1e-310 + 1e-310i
        # -1/tau itself overflows
        with pytest.raises(InvalidModulus):
            Lattice(tau)
        assert Lattice(1j / 100).n_terms == 2

    @pytest.mark.parametrize("tol", [0.0, -1e-14, math.nan, math.inf])
    def test_series_tol_finite_positive(self, tol):
        with pytest.raises(ValueError):
            Lattice(1j, series_tol=tol)

    def test_same_point_mod_lattice(self, lat_g):
        u = 0.37 + 0.21j
        assert lat_g.same_point(3 + 2 * lat_g.tau, 0)
        assert lat_g.same_point(u, u + 2 - 5 * lat_g.tau)
        assert not lat_g.same_point(u, u + 0.25)
        # on tau = 3.4 + 0.3i the cell point of 0.045i in the basis <1, tau>
        # lies about 1 from 0, though 0.045i is 0.045 from the lattice
        skew = Lattice(3.4 + 0.3j)
        assert skew.same_point(0.045j, 0, 0.05)
        assert not skew.same_point(0.045j, 0, 0.04)

    @pytest.mark.parametrize(
        "tau", [1j, TAU_GENERIC, 3.4 + 0.3j, -0.45 + 0.2j])
    def test_distance_mod_lattice(self, tau):
        # against the nearest of the lattice points m + n tau, |m| <= 200,
        # |n| <= 40: enough for these tau and |Re|, |Im| of a - b <= 6
        lat = Lattice(tau)
        m, n = np.meshgrid(np.arange(-200, 201), np.arange(-40, 41))
        points = (m + n * tau).ravel()
        rng = np.random.default_rng(5)
        for a, b in rng.uniform(-3, 3, (20, 2, 2)) @ [1, 1j]:
            want = np.abs(a - b - points).min()
            assert abs(lat.distance(a, b) - want) <= 1e-12 * max(1, want)
        # an (n, 1) column against a (p,) row broadcasts to (n, p), and
        # same_point agrees with distance on both sides of CELL_INRADIUS
        a = rng.uniform(-3, 3, (12, 1, 2)) @ [1, 1j]
        b = rng.uniform(-3, 3, (5, 2)) @ [1, 1j]
        want = np.abs((a - b)[..., None] - points).min(axis=-1)
        got = lat.distance(a, b)
        assert got.shape == (12, 5)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1, want))
        for tol in (0.1, 0.3, 0.6, 1.0):
            assert np.array_equal(lat.same_point(a, b, tol), got < tol)


class TestIdentities:
    def test_wp_parity(self, lat_g):
        for u in (0.31 + 0.17j, -0.42 + 0.88j):
            assert abs(wp(u, lat_g) - wp(-u, lat_g)) < 1e-10
            assert abs(wp_prime(u, lat_g) + wp_prime(-u, lat_g)) < 1e-10

    def test_wp_periodicity(self, lat_g):
        u = 0.29 + 0.33j
        for w in (1.0, lat_g.tau, 3 - 2 * lat_g.tau):
            assert abs(wp(u + w, lat_g) - wp(u, lat_g)) < 1e-10
            assert abs(wp_prime(u + w, lat_g) - wp_prime(u, lat_g)) < 1e-10

    def test_zeta_quasi_periodicity(self, lat_g):
        u = 0.23 + 0.41j
        assert abs(zeta_w(u + 1, lat_g) - zeta_w(u, lat_g) - lat_g.eta1) < 1e-10
        assert (
            abs(zeta_w(u + lat_g.tau, lat_g) - zeta_w(u, lat_g) - lat_g.eta2)
            < 1e-10
        )

    def test_sigma_quasi_periodicity(self, lat_g):
        u = 0.19 + 0.52j
        tau = lat_g.tau
        for eta, w in ((lat_g.eta1, 1.0), (lat_g.eta2, tau)):
            lhs = sigma_w(u + w, lat_g)
            rhs = -sigma_w(u, lat_g) * cmath.exp(eta * (u + w / 2))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_zeta_derivative_is_minus_wp(self, lat_g):
        h = 1e-6
        for u in (0.27 + 0.31j, -0.51 + 0.64j):
            fd = (zeta_w(u + h, lat_g) - zeta_w(u - h, lat_g)) / (2 * h)
            assert abs(fd + wp(u, lat_g)) < 1e-6

    def test_sigma_log_derivative_is_zeta(self, lat_g):
        h = 1e-6
        u = 0.33 + 0.27j
        fd = (sigma_w(u + h, lat_g) - sigma_w(u - h, lat_g)) / (
            2 * h * sigma_w(u, lat_g)
        )
        assert abs(fd - zeta_w(u, lat_g)) < 1e-6

    def test_wp_prime_matches_fd(self, lat_g):
        h = 1e-6
        u = 0.41 + 0.23j
        fd = (wp(u + h, lat_g) - wp(u - h, lat_g)) / (2 * h)
        assert abs(fd - wp_prime(u, lat_g)) < 1e-4

    @pytest.mark.parametrize(
        "tau", [TAU_GENERIC, 0.3 + 0.8j, 0.2 + 0.05j, 0.05j, -2.7 + 0.9j]
    )
    def test_modular_invariance(self, tau):
        # <1, tau + 1> is <1, tau>, and <1, -1/tau> is tau^-1 <1, tau>: by
        # homogeneity each kernel agrees across the three bases
        lats = (Lattice(tau), Lattice(tau + 1), Lattice(-1 / tau))
        u = np.array([0.17 + 0.11j, -0.31 + 0.23j * tau.imag, 0.42 - 0.05j,
                      0.05 + 0.4 * tau])
        for f, power in ((wp, -2), (wp_prime, -3), (zeta_w, -1), (sigma_w, 1)):
            ref = f(u, lats[0])
            for other in (f(u, lats[1]), tau**power * f(u / tau, lats[2])):
                assert np.all(
                    np.abs(other - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))
                ), (f.__name__, tau)


class TestOracles:
    def test_half_period_value_square_torus(self, lat_i):
        # frozen brute-force value for e1 = wp(1/2) at tau = i
        assert abs(wp(0.5, lat_i) - E1_TAU_I) < 1e-8

    def test_eisenstein_oracle_generic_point(self, lat_g):
        u = 0.31 + 0.22j
        assert abs(wp(u, lat_g) - eisenstein_wp(u, lat_g.tau)) < 1e-8

    def test_eisenstein_oracle_square_torus(self, lat_i):
        oracle = eisenstein_wp(0.5, TAU_SQUARE)
        assert abs(oracle - E1_TAU_I) < 1e-8

    def test_g2_from_half_periods(self, lat_i):
        # at tau = i: e2 = 0, e3 = -e1, so g2 = 4 e1^2 and g3 = 0
        e1 = wp(0.5, lat_i)
        e2 = wp((1 + lat_i.tau) / 2, lat_i)
        assert abs(e2) < 1e-10
        assert abs(lat_i.g2() - 4 * e1.real**2) < 1e-8


class TestPoles:
    def test_pole_at_lattice_points(self, lat_g):
        for u in (0.0, 1.0, lat_g.tau, 2 - 3 * lat_g.tau):
            for f in (wp, wp_prime, zeta_w):
                with pytest.raises(PoleAt):
                    f(u, lat_g)

    def test_sigma_is_finite_at_lattice_points(self, lat_g):
        # sigma has zeros, not poles
        assert abs(sigma_w(1.0, lat_g)) < 1e-10

    def test_reduce_to_cell(self, lat_g):
        tau = lat_g.tau
        u = 0.21 + 0.17j + 4 - 3 * tau
        u0, m, n = reduce_to_cell(u, tau)
        assert (m, n) == (4, -3)
        assert abs(u0 + m + n * tau - u) < 1e-12



# the last four reduce by tau -> -1/tau; 0.2+0.05i was the old floor
# Im(tau) >= 0.05, the theta series on <1, tau> itself cancels at 0.05i, and
# 0.02+0.04i lies below that floor
ORACLE_TAUS = (1j, 0.3 + 0.8j, 0.2 + 0.05j, 0.05j, 0.02 + 0.04j)
KERNELS = (sigma_w, zeta_w, wp, wp_prime)


def mpmath_kernels(tau, u, dps=30):
    """(sigma, zeta, wp, wp') at u from mpmath.jtheta, at dps digits."""
    with mpmath.workdps(dps):
        tau = mpmath.mpc(tau.real, tau.imag)
        u = mpmath.mpc(u.real, u.imag)
        q = mpmath.exp(1j * mpmath.pi * tau)
        pi = mpmath.pi
        t1p0 = mpmath.jtheta(1, 0, q, 1)
        eta1 = -pi**2 / 3 * mpmath.jtheta(1, 0, q, 3) / t1p0
        t0, t1, t2, t3 = (mpmath.jtheta(1, pi * u, q, k) for k in range(4))
        values = (
            mpmath.exp(eta1 * u * u / 2) * t0 / (pi * t1p0),
            eta1 * u + pi * t1 / t0,
            -eta1 - pi**2 * (t2 * t0 - t1**2) / t0**2,
            -pi**3 * (t3 * t0**2 - 3 * t0 * t1 * t2 + 2 * t1**3) / t0**3,
        )
        return [complex(v) for v in values]


def oracle_points(tau):
    """Points of the cell and their translates into eight other cells."""
    base = (0.17 + 0.11j, -0.31 + 0.23j * tau.imag, 0.42 - 0.05j, 0.05 + 0.4 * tau)
    return [b + m + n * tau for b in base for m in (-1, 0, 2) for n in (-1, 0, 1)]


class TestMpmathOracle:
    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_kernels_match_jtheta(self, tau):
        lat = Lattice(tau)
        points = oracle_points(tau)
        on_array = [f(np.array(points), lat) for f in KERNELS]
        for i, u in enumerate(points):
            for f, values, ref in zip(KERNELS, on_array, mpmath_kernels(tau, u)):
                scalar = f(u, lat)
                assert type(scalar) is complex
                bound = 1e-13 * max(1.0, abs(ref))
                assert abs(scalar - ref) <= bound, (f.__name__, tau, u)
                assert abs(values[i] - ref) <= bound, (f.__name__, tau, u)

    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_wp_differential_equation(self, tau):
        # wp'^2 = 4 wp^3 - g2 wp - g3 with g3 = 4 e1 e2 e3: an identity that
        # neither the wp nor the wp' formula uses
        lat = Lattice(tau)
        e1, e2, e3 = wp(np.array(lat.half_periods()), lat)
        g2, g3 = lat.g2(), 4 * e1 * e2 * e3
        u = np.array(oracle_points(tau))
        p, dp = wp(u, lat), wp_prime(u, lat)
        terms = [dp * dp, 4 * p**3, g2 * p, np.full_like(p, g3)]
        scale = np.max(np.abs(terms), axis=0)
        defect = np.abs(dp * dp - (4 * p**3 - g2 * p - g3))
        assert np.all(defect <= 1e-13 * scale)

    @pytest.mark.parametrize(
        "tau, half, other",
        [(30j, 15j, 1.0), (0.03j, 0.5, 0.03j), (99j, 49.5j, 1.0)],
    )
    def test_wp_prime_near_thin_half_period(self, tau, half, other):
        # half reduces to tau'/2, Im(tau') = 30, 33.3 and 99, where theta_1
        # needs one term but wp''s theta_4(2v, q'^2) two: near tau'/2, wp' is
        # ~1e-38 (1e-132 at 99i) and that factor's n = 1 term is as large as
        # wp'.  A relative bound; mpmath's formula loses as many digits as wp'
        # is small, so it runs at 300
        lat = Lattice(tau)
        for s, x in ((0.98, 0.0), (0.98, 0.21), (0.995, -0.37), (1.0, 0.013),
                     (1.0, 0.2)):
            u = s * half + x * other
            ref = mpmath_kernels(tau, u, dps=300)[3]
            assert abs(wp_prime(u, lat) - ref) <= 1e-13 * abs(ref), (tau, u)

    def test_array_shape_is_kept(self, lat_g):
        u = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [-0.2 + 0.4j, 0.45 + 0.05j]])
        for f in KERNELS:
            out = f(u, lat_g)
            assert out.shape == u.shape
            assert out[1, 0] == f(u[1, 0], lat_g)

    def test_pole_anywhere_in_array(self, lat_g):
        u = np.array([0.1 + 0.2j, 2.0 - lat_g.tau, 0.3 + 0.1j])
        for f in (wp, wp_prime, zeta_w):
            with pytest.raises(PoleAt):
                f(u, lat_g)

    @pytest.mark.parametrize(
        "tau", (0.05j, 1j, 0.3 + 0.8j, 0.2 + 0.05j, 0.1 + 0.2j)
    )
    def test_eta1_matches_jtheta(self, tau):
        # the theta quotient -pi^2/3 theta1'''(0)/theta1'(0) of <1, tau>
        # itself cancels to 3.4e-11 relative at tau = 0.05i; on the reduced
        # basis, |q'| <= 0.066, it does not
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
            ref = complex(
                -mpmath.pi**2 / 3
                * mpmath.jtheta(1, 0, q, 3) / mpmath.jtheta(1, 0, q, 1)
            )
        assert abs(Lattice(tau).eta1 - ref) <= 1e-14 * abs(ref)

    def test_legendre_defect_at_min_im_tau(self):
        lat = Lattice(0.2 + 0.05j)
        assert lat.legendre_defect() <= 10 * lat.series_tol

    def test_legendre_defect_at_cancelling_tau(self):
        # the series on <1, tau> itself left 2.47e-9 here
        assert Lattice(0.05j).legendre_defect() <= 1e-13

    @pytest.mark.parametrize("tau", ORACLE_TAUS + (0.1 + 0.2j,))
    def test_first_omitted_term_below_series_tol(self, tau):
        # the n = N term of theta_1^(j), j <= 3, on the reduced lattice's
        # cell (|Im v| <= pi Im(tau') / 2), relative to the leading scale
        # 2|q'|^(1/4), and that of wp''s theta_4(2v, q'^2), relative to 1
        lat = Lattice(tau)
        n = lat.n_terms
        assert len(lat.terms) == n <= 4
        a = lat.tau_r.imag
        assert abs(lat.tau_r.real) <= 0.5 and abs(lat.tau_r) >= 1 - 1e-15
        q = math.exp(-math.pi * a)
        k = 2 * n + 1
        term = k**3 * q ** ((n + 0.5) ** 2) * math.cosh(k * math.pi * a / 2)
        assert term / q ** 0.25 < lat.series_tol
        assert 2 * q ** (2 * n * (n - 1)) < lat.series_tol

    def test_series_arrays_stay_out_of_equality(self):
        a, b = Lattice(0.3 + 0.8j), Lattice(0.3 + 0.8j)
        assert a == b and hash(a) == hash(b)
        assert ", terms=" not in repr(a)
        assert Torus(a, (0.1,)) == Torus(b, (0.1,))


def cell_sweep(tau, n):
    """n points spread over the fundamental cell and its neighbours, none
    on the lattice."""
    k = np.arange(n)
    s = (k * 0.6180339887498949) % 1.0 - 0.5
    t = (k * 0.7548776662466927) % 1.0 - 0.5
    return 0.013 + 0.007j + 2.0 * s + 1.5 * t * tau


class TestWorkingSet:
    def test_working_set_is_bounded(self):
        # one quadrature block (512 panels of 15 nodes) at the old floor
        # Im(tau) = 0.05, where <1, tau> itself needed N = 17 terms
        lat = Lattice(0.2 + 0.05j)
        assert lat.n_terms <= 4
        u = cell_sweep(lat.tau, 7680)
        tracemalloc.start()
        try:
            wp_prime(u, lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


def bits(values):
    return np.asarray(values, dtype=complex).tobytes()


class TestPointwise:
    """A kernel gives the same bits for a point alone and in an array of any
    size, whatever its place there, so that eval_expr may stack blocks into
    one call."""

    @pytest.mark.parametrize("tau", (1j, 0.3 + 0.8j, 0.1 + 0.2j))
    @pytest.mark.parametrize("f", KERNELS, ids=lambda f: f.__name__)
    def test_same_bits_alone_and_in_arrays(self, tau, f):
        lat = Lattice(tau)
        u = cell_sweep(lat.tau, 7680)
        full = f(u, lat)
        for lo, hi in ((0, 15), (7, 22), (0, 1000), (6000, 7000)):
            assert bits(f(u[lo:hi], lat)) == bits(full[lo:hi]), (lo, hi)
        for k in range(0, 7680, 40):
            assert bits(f(u[k], lat)) == bits(full[k:k + 1]), k
            assert bits(f(u[k:k + 1], lat)) == bits(full[k:k + 1]), k
        # a stack of rows, as eval_expr makes it
        assert bits(f(u.reshape(4, -1), lat)) == bits(full)

    @pytest.mark.parametrize("size", (16384, 20000))
    @pytest.mark.parametrize("tau", (1j, 0.3 + 0.8j, 0.1 + 0.2j))
    @pytest.mark.parametrize("f", KERNELS, ids=lambda f: f.__name__)
    def test_same_bits_in_large_arrays(self, tau, f, size):
        # numpy reuses a temporary of 16,384 complex points or more in
        # place, and its in-place complex product rounds otherwise
        lat = Lattice(tau)
        u = cell_sweep(lat.tau, size)
        full = f(u, lat)
        for lo in range(0, size, 1000):
            hi = lo + 1000
            assert bits(f(u[lo:hi], lat)) == bits(full[lo:hi]), lo
        assert bits(f(u.reshape(8, -1), lat)) == bits(full)

    @pytest.mark.parametrize(
        "size", (1, KERNEL_SLICE - 1, KERNEL_SLICE, KERNEL_SLICE + 1, 7680,
                 16384))
    @pytest.mark.parametrize("tau", (1j, 0.3 + 0.8j, 0.1 + 0.2j))
    def test_shared_cells_give_the_same_bits(self, tau, size):
        # every kind read from one reduction, as eval_expr reads a stack,
        # equals the kind called alone, in any order of the calls
        lat = Lattice(tau)
        u = cell_sweep(lat.tau, size)
        alone = [bits(f(u, lat)) for f in KERNELS]
        for order in (KERNELS, KERNELS[::-1]):
            cells = Cells(u, lat, [f.__name__ for f in order])
            shared = {f: bits(f(Rows(cells), lat)) for f in order}
            assert [shared[f] for f in KERNELS] == alone

    @pytest.mark.parametrize("tau", (1j, 0.3 + 0.8j, 0.1 + 0.2j))
    def test_rows_of_shared_cells(self, tau):
        # rows of 1,000 points: the runs start and end inside the slices
        lat = Lattice(tau)
        u = cell_sweep(lat.tau, 1000)
        stack = u - np.array([0.0, 0.25 + 0.1j, -0.3j, 0.4])[:, None]
        reads = {sigma_w: [0, 1, 2, 3], zeta_w: [1, 3], wp: [2],
                 wp_prime: [0, 1]}
        cells = Cells(stack, lat, [f.__name__ for f in reads])
        for f, index in reads.items():
            rows = Rows(cells, index)
            assert np.size(rows) == 1000 * len(index)
            assert bits(f(rows, lat)) == bits(f(stack[index], lat))

    def test_rows_keep_the_first_pole(self):
        lat = Lattice(0.3 + 0.8j)
        stack = cell_sweep(lat.tau, 3000).reshape(3, -1)
        # lattice points: one in a row wp does not read, then one in each
        # of its two slices (flat points 1,900 and 2,005)
        stack[0, 3], stack[1, 900], stack[2, 5] = 0.0, 1.0 + lat.tau, -1.0
        cells = Cells(stack, lat, ("sigma_w", "wp"))
        with pytest.raises(PoleAt) as rows:
            wp(Rows(cells, [1, 2]), lat)
        with pytest.raises(PoleAt) as alone:
            wp(stack[1:], lat)
        assert str(rows.value) == str(alone.value)
        assert rows.value.point == stack[1, 900]
        assert bits(sigma_w(Rows(cells), lat)) == bits(sigma_w(stack, lat))

    @pytest.mark.parametrize("tau", (1j, 0.3 + 0.8j, 0.1 + 0.2j))
    def test_sigma_at_non_finite_points(self, tau):
        # nan where a point is not finite, and no warning past errstate:
        # (-1)^(m + n + mn) is x - 2 floor(x / 2), which has np.mod's bits
        # at non-finite x too, where an int cast would warn
        lat = Lattice(tau)
        parts = [math.nan, math.inf, -math.inf, 0.0, 0.3]
        u = np.array([complex(a, b) for a in parts for b in parts])
        finite = np.isfinite(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = sigma_w(u, lat)
                one_by_one = [sigma_w(p, lat) for p in u]
        assert np.isnan(got.real[~finite]).all()
        assert np.isnan(got.imag[~finite]).all()
        assert bits(got[finite]) == bits(np.array(one_by_one)[finite])
        x = np.array([math.nan, math.inf, -math.inf, -3.0, -2.0, 0.0, 7.0])
        with np.errstate(all="ignore"):
            assert bits(x - 2 * np.floor(x / 2)) == bits(np.mod(x, 2))
