"""Kernel-level checks: identities and oracles.

The brute-force Eisenstein oracle recomputes wp by paired lattice sums with
Richardson extrapolation — an implementation path disjoint from the theta
series, used to pin absolute values.  The mpmath oracle evaluates the same
theta formulas (DLMF 23.6) at 30 digits, with no cell reduction and no
truncation of its own choosing.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from helikon.errors import InvalidModulus, PoleAt
from helikon.expr import Torus
from helikon.kernels import reduce_to_cell, sigma_w, wp, wp_prime, zeta_w
from helikon.lattice import MIN_IM_TAU, Lattice

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

    def test_same_point_mod_lattice(self, lat_g):
        u = 0.37 + 0.21j
        assert lat_g.contains(3 + 2 * lat_g.tau)
        assert lat_g.same_point(u, u + 2 - 5 * lat_g.tau)
        assert not lat_g.same_point(u, u + 0.25)


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



ORACLE_TAUS = (1j, 0.3 + 0.8j, 0.2 + 0.05j)  # the last at the MIN_IM_TAU floor
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

    def test_array_shape_is_kept(self, lat_g):
        u = np.array([[0.1 + 0.2j, 0.3 - 0.1j], [-0.2 + 0.4j, 0.45 + 0.05j]])
        for f in KERNELS:
            out = f(u, lat_g)
            assert out.shape == u.shape
            one = f(u[1, 0], lat_g)
            # the contraction may round differently for one point and many
            assert abs(out[1, 0] - one) <= 1e-15 * abs(one)

    def test_pole_anywhere_in_array(self, lat_g):
        u = np.array([0.1 + 0.2j, 2.0 - lat_g.tau, 0.3 + 0.1j])
        for f in (wp, wp_prime, zeta_w):
            with pytest.raises(PoleAt):
                f(u, lat_g)

    def test_legendre_defect_at_min_im_tau(self):
        lat = Lattice(0.2 + MIN_IM_TAU * 1j)
        assert lat.legendre_defect() <= 10 * lat.series_tol

    @pytest.mark.parametrize("tau", ORACLE_TAUS + (0.1 + 0.2j,))
    def test_first_omitted_term_below_series_tol(self, tau):
        # the n = N term of theta_1^(j), j <= 3, on the reduced cell
        # (|Im v| <= pi Im(tau) / 2), relative to the leading scale 2|q|^(1/4)
        lat = Lattice(tau)
        n = lat.n_terms
        assert len(lat.c0) == len(lat.c1) == len(lat.c2) == n
        k = 2 * n + 1
        a = tau.imag
        term = k**3 * abs(lat.q) ** ((n + 0.5) ** 2) * math.cosh(k * math.pi * a / 2)
        assert term / abs(lat.q) ** 0.25 < lat.series_tol

    def test_series_arrays_stay_out_of_equality(self):
        a, b = Lattice(0.3 + 0.8j), Lattice(0.3 + 0.8j)
        assert a == b and hash(a) == hash(b)
        assert "c0" not in repr(a)
        assert Torus(a, (0.1,)) == Torus(b, (0.1,))
