"""Torus lattice <1, tau> with its quasi-period constants.

Constants follow the full-period increment convention
zeta(u+1) = zeta(u) + eta1, zeta(u+tau) = zeta(u) + eta2, under which the
Legendre relation reads eta1*tau - eta2 = 2*pi*i (pinned by a brute-force
Eisenstein-summation oracle, frozen as a regression value in the tests).
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModulus
from .kernels import (
    reduce_to_cell,
    term_count,
    theta1,
    theta1_prime,
    theta_coefficients,
    wp,
)

MIN_IM_TAU = 0.05

LEGENDRE_CONSTANT = 2j * cmath.pi


def _series():
    # derived arrays, kept out of the lattice's equality, hash and repr
    return field(init=False, compare=False, repr=False)


def _eta1(tau, tol):
    """eta1 = pi^2/3 * E2(tau), from the Lambert series
    E2 = 1 - 24 sum_{n >= 1} x^n / (1 - x^n)^2, x = exp(2 pi i tau).

    Unlike -pi^2/3 * theta1'''(0)/theta1'(0), the series does not cancel
    near Im(tau) = MIN_IM_TAU.  With r = |x|, the tail from the n-th term
    on is at most r^n / ((1 - r) (1 - r^n)^2); the sum stops at the least
    n with 24 r^n / (1 - r) <= tol, which bounds the truncation by about
    tol relative to the leading 1.
    """
    r = math.exp(-2.0 * math.pi * tau.imag)
    n = max(1, math.ceil(math.log(tol * (1.0 - r) / 24.0) / math.log(r)))
    x = np.exp(2j * np.pi * tau * np.arange(1, n + 1))
    e2 = 1.0 - 24.0 * complex(np.sum(x / (1.0 - x) ** 2))
    return cmath.pi ** 2 / 3.0 * e2


@dataclass(frozen=True)
class Lattice:
    tau: complex
    series_tol: float = 1e-14
    q: complex = field(init=False)
    eta1: complex = field(init=False)
    eta2: complex = field(init=False)
    t1p0: complex = field(init=False)  # theta1'(0, q), sigma's normalizer
    n_terms: int = field(init=False)  # theta q-series terms, see term_count
    k: np.ndarray = _series()  # 2n + 1
    c0: np.ndarray = _series()  # (-1)^n q^((n+1/2)^2)
    c1: np.ndarray = _series()  # c0 * k
    c2: np.ndarray = _series()  # c0 * k^2

    def __post_init__(self):
        tau = complex(self.tau)
        if not cmath.isfinite(tau):
            raise InvalidModulus(f"tau = {tau} is not finite")
        if tau.imag < MIN_IM_TAU:
            raise InvalidModulus(f"Im(tau) = {tau.imag:.4g} < {MIN_IM_TAU}")
        # a nan tol never stops term_count, and _eta1 cannot take inf
        if not 0 < self.series_tol < math.inf:
            raise ValueError("series_tol must be finite and positive")
        q = cmath.exp(1j * cmath.pi * tau)
        n_terms = term_count(tau.imag, self.series_tol)
        k, c0, c1, c2 = theta_coefficients(q, n_terms)
        t1p0 = 2.0 * complex(np.sum(c1))
        eta1 = _eta1(tau, self.series_tol)
        for name, value in (
            ("tau", tau), ("q", q), ("n_terms", n_terms), ("k", k),
            ("c0", c0), ("c1", c1), ("c2", c2), ("t1p0", t1p0),
            ("eta1", eta1),
        ):
            object.__setattr__(self, name, value)
        # eta2 = 2*zeta(tau/2), evaluated from the theta series directly so
        # the Legendre relation stays a genuine consistency check
        half = tau / 2.0
        eta2 = eta1 * tau + 2.0 * cmath.pi * complex(
            theta1_prime(half, self) / theta1(half, self)
        )
        object.__setattr__(self, "eta2", eta2)

    def half_periods(self):
        """The three nonzero half-period representatives."""
        return (0.5, self.tau / 2.0, (1.0 + self.tau) / 2.0)

    def g2(self):
        """Elliptic invariant g2, from the half-period values of wp."""
        es = wp(np.array(self.half_periods()), self)
        return 2.0 * complex(np.sum(es * es))

    def legendre_defect(self):
        """|eta1*tau - eta2 - 2*pi*i|; should be ~10*series_tol or below."""
        return abs(self.eta1 * self.tau - self.eta2 - LEGENDRE_CONSTANT)

    def contains(self, u, tol=1e-9):
        """True if u is a lattice point to within tol (elementwise for an
        array u)."""
        u0, _, _ = reduce_to_cell(u, self.tau)
        return abs(u0) < tol

    def same_point(self, a, b, tol=1e-9):
        """True if a == b modulo the lattice (elementwise for arrays)."""
        return self.contains(a - b, tol)
