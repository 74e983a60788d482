"""Torus lattice <1, tau> with its quasi-period constants.

Constants follow the convention zeta(u+1) = zeta(u) + eta1,
zeta(u+tau) = zeta(u) + eta2, under which the Legendre relation reads
eta1*tau - eta2 = 2*pi*i.  Any finite tau with Im(tau) > 0 is accepted
unless Im(tau') > MAX_IM_TAU_R, where tau' = (a*tau + b) / omega,
omega = c*tau + d, is tau reduced by the unimodular (a b; c d) of
reduce_modulus: |Re tau'| <= 1/2 and |tau'| >= 1, so Im(tau') >= sqrt(3)/2,
and <1, tau> = omega <1, tau'>.  eta1', eta2' of <1, tau'> come from its
theta series (eta2' from theta_1'/theta_1 at tau'/2, so that the Legendre
relation stays a check); eta1 = (a eta1' - c eta2') / omega and
eta2 = (d eta2' - b eta1') / omega (DLMF 23.18).
"""

import cmath
import math

import numpy as np

from .errors import InvalidModulus
from .kernels import reduce_to_cell, term_count, wp
from .records import field, record

LEGENDRE_CONSTANT = 2j * cmath.pi
# wp''s theta_4(2v, q'^2) n = 1 term, up to 1 on the cell, is w times c_1 w^3
# with c_1 = -q'^2, which leaves the normal doubles at Im(tau') = 112.7
MAX_IM_TAU_R = 100.0
# the reduced cell's sides lie Im(tau')/2 and Im(tau')/(2|tau'|) >= sqrt(3)/4
# from 0, so a point within this of the lattice has its offset from the
# nearest lattice point for its cell point v0: the distance is |v0| below it
CELL_INRADIUS = math.sqrt(3) / 4


def reduce_modulus(tau):
    """Integers (a, b, c, d), ad - bc = 1, that take tau to (a*tau + b) /
    (c*tau + d) in the fundamental domain, by tau -> tau - k, -1/tau;
    InvalidModulus when -1/tau overflows."""
    a, b, c, d = 1, 0, 0, 1
    while True:
        k = round(tau.real)
        tau, a, b = tau - k, a - k * c, b - k * d
        if abs(tau) >= 1.0:
            return a, b, c, d
        tau, a, b, c, d = -1.0 / tau, -c, -d, a, b
        if not cmath.isfinite(tau):
            raise InvalidModulus("tau is too thin: -1/tau overflows")


@record(frozen=True)
class Lattice:
    tau: complex
    series_tol: float = 1e-14
    eta1: complex = field(init=False)
    eta2: complex = field(init=False)
    basis: tuple = field(init=False)  # (a, b, c, d) of reduce_modulus
    omega: complex = field(init=False)  # c*tau + d
    tau_r: complex = field(init=False)  # tau', the reduced modulus
    eta_r: tuple = field(init=False)  # (eta1', eta2') of <1, tau'>
    sigma_scale: complex = field(init=False)  # sigma's constant, see kernels
    wpp_scale: complex = field(init=False)  # wp''s constant, see kernels
    n_terms: int = field(init=False)  # theta q-series terms, see term_count
    # per-term (c, c k, c k^2), see __post_init__; out of equality and repr
    terms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not cmath.isfinite(tau):
            raise InvalidModulus(f"tau = {tau} is not finite")
        if not tau.imag > 0:
            raise InvalidModulus(f"Im(tau) = {tau.imag:.4g} is not positive")
        # a nan tol never stops term_count
        if not 0 < self.series_tol < math.inf:
            raise ValueError("series_tol must be finite and positive")
        a, b, c, d = reduce_modulus(tau)
        omega = c * tau + d
        tau_r = (a * tau + b) / omega
        if not tau_r.imag <= MAX_IM_TAU_R:
            raise InvalidModulus(
                f"Im(tau') = {tau_r.imag:.4g} > {MAX_IM_TAU_R}: too thin")
        # term n, k = 2n+1, has theta_1's c = (-1)^n q'^(n(n+1)), over
        # q'^(1/4).  With theta_1'(0), theta_1'''(0) = 2 q'^(1/4) (t1, -t3)
        # and theta_sums' A_j at tau'/2, eta1' = pi^2/3 (1 + (t3 - t1)/t1) and
        # eta2' = 2 zeta'(tau'/2) = eta1' tau' - 2 pi i (1 - (A_0 + A_1)/A_0),
        # with the small t3 - t1 and A_0 + A_1 summed term by term;
        # theta_4(0, q'^2) sums (-1)^(n+1) c_(n-1) c_n, as wp' does
        w = cmath.exp(0.5j * cmath.pi * tau_r)
        terms, t1, t31, a0, a01, theta4_0, c_ = [], 0, 0, 0, 0, 1, 0
        for n in range(term_count(tau_r.imag, self.series_tol)):
            k = 2 * n + 1
            cn = (-1) ** n * cmath.exp(1j * cmath.pi * tau_r * n * (n + 1))
            terms.append((cn, cn * k, cn * k * k))
            t1, t31 = t1 + cn * k, t31 + cn * (k ** 3 - k)
            a0 += cn * (w ** k - w ** -k)
            a01 += cn * ((k + 1) * w ** k + (k - 1) * w ** -k)
            theta4_0, c_ = theta4_0 - 2 * (-1) ** n * c_ * cn, cn
        eta1_r = cmath.pi ** 2 / 3.0 * (1.0 + t31 / t1)
        eta2_r = eta1_r * tau_r - LEGENDRE_CONSTANT * (1.0 - a01 / a0)
        derived = {
            "tau": tau, "basis": (a, b, c, d), "omega": omega, "tau_r": tau_r,
            "eta_r": (eta1_r, eta2_r), "n_terms": len(terms),
            "terms": tuple(terms),
            "eta1": (a * eta1_r - c * eta2_r) / omega,
            "eta2": (d * eta2_r - b * eta1_r) / omega,
            "sigma_scale": omega / (2j * cmath.pi * t1),
            "wpp_scale": 8j * cmath.pi ** 3 * t1 * t1 * theta4_0 / omega ** 3,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

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

    def distance(self, a, b):
        """|a - b| modulo the lattice, elementwise for arrays (which
        broadcast): |omega| |v0 - m - n tau'| for the cell point v0 of
        (a - b) / omega and the nearest m + n tau', |m|, |n| <= 1."""
        u = np.subtract(a, b, dtype=complex) * (1 / self.omega)
        v0 = np.atleast_1d(reduce_to_cell(u, self.tau_r)[0])
        r = np.abs(v0)
        far = r >= CELL_INRADIUS
        if np.count_nonzero(far):
            near = np.add.outer([-1, 0, 1], [-self.tau_r, 0, self.tau_r])
            r[far] = np.abs(v0[far, None] - near.ravel()).min(axis=1)
        return abs(self.omega) * (float(r[0]) if u.ndim == 0 else r)

    def same_point(self, a, b, tol=1e-9):
        """distance(a, b) < tol, elementwise for arrays; for a tol up to
        CELL_INRADIUS |omega|, decided by the cell point alone."""
        if tol <= CELL_INRADIUS * abs(self.omega):
            v0, _, _ = reduce_to_cell((a - b) * (1 / self.omega), self.tau_r)
            return abs(self.omega) * np.abs(v0) < tol
        return self.distance(a, b) < tol
