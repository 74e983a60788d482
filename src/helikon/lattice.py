"""Torus lattice <1, tau> with its quasi-period constants.

Constants follow the full-period increment convention
zeta(u+1) = zeta(u) + eta1, zeta(u+tau) = zeta(u) + eta2, under which the
Legendre relation reads eta1*tau - eta2 = 2*pi*i (pinned by a brute-force
Eisenstein-summation oracle, frozen as a regression value in the tests).
"""

import cmath
from dataclasses import dataclass, field

from .errors import InvalidModulus
from .kernels import (
    reduce_to_cell,
    theta1,
    theta1_prime,
    theta1_triple_prime0,
    wp_raw,
)

MIN_IM_TAU = 0.05

LEGENDRE_CONSTANT = 2j * cmath.pi


@dataclass(frozen=True)
class Lattice:
    tau: complex
    series_tol: float = 1e-14
    q: complex = field(init=False)
    eta1: complex = field(init=False)
    eta2: complex = field(init=False)
    t1p0: complex = field(init=False)  # theta1'(0, q), sigma's normalizer

    def __post_init__(self):
        tau = complex(self.tau)
        if tau.imag < MIN_IM_TAU:
            raise InvalidModulus(f"Im(tau) = {tau.imag:.4g} < {MIN_IM_TAU}")
        if self.series_tol <= 0:
            raise ValueError("series_tol must be positive")
        q = cmath.exp(1j * cmath.pi * tau)
        tol = self.series_tol
        # eta1 = -pi^2/3 * theta1'''(0)/theta1'(0) for half-period 1/2
        t1p0 = theta1_prime(0j, q, tol)
        t1ppp0 = theta1_triple_prime0(q, tol)
        eta1 = -(cmath.pi ** 2) / 3.0 * t1ppp0 / t1p0
        # eta2 = 2*zeta(tau/2), evaluated from the theta series directly so
        # the Legendre relation stays a genuine consistency check
        v = cmath.pi * tau / 2.0
        eta2 = eta1 * tau + 2.0 * cmath.pi * theta1_prime(v, q, tol) \
            / theta1(v, q, tol)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "eta1", eta1)
        object.__setattr__(self, "eta2", eta2)
        object.__setattr__(self, "t1p0", t1p0)

    def half_periods(self):
        """The three nonzero half-period representatives."""
        return (0.5, self.tau / 2.0, (1.0 + self.tau) / 2.0)

    def g2(self):
        """Elliptic invariant g2, from the half-period values of wp."""
        es = [
            wp_raw(w, self.tau, self.q, self.eta1, self.series_tol)
            for w in self.half_periods()
        ]
        return 2.0 * sum(e * e for e in es)

    def legendre_defect(self):
        """|eta1*tau - eta2 - 2*pi*i|; should be ~10*series_tol or below."""
        return abs(self.eta1 * self.tau - self.eta2 - LEGENDRE_CONSTANT)

    def contains(self, u, tol=1e-9):
        """True if u is a lattice point to within tol."""
        u0, _, _ = reduce_to_cell(complex(u), self.tau)
        return abs(u0) < tol

    def same_point(self, a, b, tol=1e-9):
        """True if a == b modulo the lattice."""
        return self.contains(complex(a) - complex(b), tol)
