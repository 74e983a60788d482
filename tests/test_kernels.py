"""Kernel-level checks: identities and oracles.

The brute-force Eisenstein oracle recomputes wp by paired lattice sums with
Richardson extrapolation — an implementation path disjoint from the theta
series, used to pin absolute values.
"""

import cmath
import math

import numpy as np
import pytest

from helikon.errors import InvalidModulus, PoleAt
from helikon.kernels import reduce_to_cell, sigma_w, wp, wp_prime, zeta_w
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

