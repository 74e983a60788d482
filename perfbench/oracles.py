"""Independent reference computations for the benchmark's output checks.

Nothing here imports helikon.  The elliptic functions are built from
mpmath.jtheta (DLMF 23.6) instead of the package's double-precision theta
series, period integrals use Gauss-Legendre rules on panels graded away
from the poles (instead of adaptive Gauss-Kronrod), the plane immersions
are closed forms, and the Enneper self-intersection is confirmed by solving
F(u1) = F(u2) with scipy.optimize.least_squares.

Conventions match helikon's: the lattice is <1, tau>, the nome is
q = exp(i pi tau), and eta1, eta2 are full-period increments of zeta, so
the Legendre relation reads eta1 * tau - eta2 = 2 pi i.
"""

import math

import mpmath as mp
import numpy as np
from scipy.optimize import least_squares


class MpLattice:
    """Weierstrass sigma, zeta, wp and wp' on <1, tau> from jtheta."""

    def __init__(self, tau, dps=30):
        self.dps = dps
        with mp.workdps(dps):
            self.tau = mp.mpc(tau)
            self.q = mp.exp(1j * mp.pi * self.tau)
            self.t1p0 = mp.jtheta(1, 0, self.q, 1)
            self.eta1 = -mp.pi ** 2 / 3 * mp.jtheta(1, 0, self.q, 3) / self.t1p0

    def _theta(self, u, k=0):
        return mp.jtheta(1, mp.pi * u, self.q, k)

    def sigma(self, u):
        with mp.workdps(self.dps):
            u = mp.mpc(u)
            return (mp.exp(self.eta1 * u * u / 2) * self._theta(u)
                    / (mp.pi * self.t1p0))

    def zeta(self, u):
        with mp.workdps(self.dps):
            u = mp.mpc(u)
            return self.eta1 * u + mp.pi * self._theta(u, 1) / self._theta(u)

    def wp(self, u):
        """-zeta'(u) = -eta1 - pi^2 (log theta1)''(pi u)."""
        with mp.workdps(self.dps):
            u = mp.mpc(u)
            t0, t1, t2 = (self._theta(u, k) for k in range(3))
            return -self.eta1 - mp.pi ** 2 * (t2 * t0 - t1 * t1) / (t0 * t0)

    def wp_prime(self, u):
        """-pi^3 (log theta1)'''(pi u); independent of sigma(2u)/sigma(u)^4."""
        with mp.workdps(self.dps):
            u = mp.mpc(u)
            t0, t1, t2, t3 = (self._theta(u, k) for k in range(4))
            d3 = t3 / t0 - 3 * t1 * t2 / t0 ** 2 + 2 * t1 ** 3 / t0 ** 3
            return -mp.pi ** 3 * d3

    def eta2(self):
        """2 zeta(tau/2), from the theta quotient rather than Legendre."""
        return 2 * self.zeta(self.tau / 2)

    def legendre_defect(self):
        with mp.workdps(self.dps):
            return abs(self.eta1 * self.tau - self.eta2() - 2j * mp.pi)

    def half_periods(self):
        with mp.workdps(self.dps):
            return (mp.mpf(0.5), self.tau / 2, (1 + self.tau) / 2)

    def reduce(self, u):
        """(u0, m, n) with u = u0 + m + n tau and u0 in the centred cell."""
        u = complex(u)
        tau = complex(self.tau)
        n = round(u.imag / tau.imag)
        m = round(u.real - n * tau.real)
        return u - m - n * tau, m, n


def self_check(taus=(1j, 0.3 + 0.8j, 0.1 + 0.2j), dps=40):
    """Raise AssertionError unless the oracle satisfies known identities.

    The Legendre relation to 30 digits, wp' = 0 at the three half-periods,
    and sigma odd with sigma'(0) = 1.
    """
    for tau in taus:
        lat = MpLattice(tau, dps=dps)
        assert lat.legendre_defect() < mp.mpf(10) ** -30, (
            f"Legendre relation fails at tau = {tau}")
        for w in lat.half_periods():
            assert abs(lat.wp_prime(w)) < mp.mpf(10) ** -28 * abs(lat.wp(w)) + mp.mpf(10) ** -28, (
                f"wp' does not vanish at the half-period {w} (tau = {tau})")
        u = mp.mpc(0.137, 0.071)
        assert abs(lat.sigma(-u) + lat.sigma(u)) < mp.mpf(10) ** -30
        with mp.workdps(dps):
            h = mp.mpf(10) ** -12
            assert abs(lat.sigma(h) / h - 1) < mp.mpf(10) ** -20


# ---------------------------------------------------------------------------
# the periodic genus-one helicoid family


class G1HData:
    """The symmetric family member of helikon's standard_g1h_family.

    Zeros of g at E1 and -E1 - shift, poles at -E1 and E1 + shift, the
    exponential factor fixed by the Abel correction so that g is elliptic,
    dh = -i (zeta(u - E1) - zeta(u + E1)) du + c du.
    """

    def __init__(self, tau, E1, shift, rho, c, dps=17):
        self.lat = MpLattice(tau, dps=dps)
        self.E1 = complex(E1)
        self.zeros = (self.E1, -self.E1 - shift)
        self.poles = (-self.E1, self.E1 + shift)
        self.rho = rho
        self.c = complex(c)
        # d = sum(poles) - sum(zeros) = m + n tau; exp(a u) with
        # a = -eta1 d + 2 pi i n cancels the quasi-periodicity of the sigmas
        d = sum(self.poles) - sum(self.zeros)
        d0, m, n = self.lat.reduce(d)
        assert abs(d0) < 1e-12, "the divisor violates Abel's condition"
        with mp.workdps(dps):
            self.a = -self.lat.eta1 * mp.mpc(d) + 2j * mp.pi * n

    def g(self, u):
        lat = self.lat
        with mp.workdps(lat.dps):
            u = mp.mpc(u)
            val = self.rho * mp.exp(self.a * u)
            for z in self.zeros:
                val *= lat.sigma(u - z)
            for w in self.poles:
                val /= lat.sigma(u - w)
            return val

    def dh(self, u):
        lat = self.lat
        with mp.workdps(lat.dps):
            u = mp.mpc(u)
            return (-1j * (lat.zeta(u - self.E1) - lat.zeta(u + self.E1))
                    + self.c)

    def singularities(self):
        """Poles of g, 1/g and dh: the points where a period integrand blows up."""
        return self.zeros + self.poles + (self.E1, -self.E1)

    def periods(self, start, span):
        """(oint g dh, oint g^-1 dh, oint dh) along start -> start + span."""
        start, span = complex(start), complex(span)
        panels = _graded_panels(start, span, self.singularities(), self.lat)
        ts = np.concatenate([t0 + (t1 - t0) * x
                             for t0, t1 in panels for x, _ in _GL])
        with mp.workdps(self.lat.dps):
            vals = [(self.g(start + t * span), self.dh(start + t * span))
                    for t in ts]
        g = np.array([complex(v[0]) for v in vals])
        h = np.array([complex(v[1]) for v in vals])
        return tuple(_panel_sum(f, panels, span) for f in (g * h, h / g, h))


# Gauss-Legendre rules of two orders on [0, 1].  On panels no longer than
# their distance to the nearest singularity both converge geometrically, so
# their difference bounds the error of the lower-order rule.
_GL = [(0.5 * (x + 1.0), 0.5 * w)
       for x, w in (np.polynomial.legendre.leggauss(n) for n in (8, 16))]


def _graded_panels(start, span, points, lat):
    """Split [0, 1] until each panel of start + t * span is no longer than
    its distance to the nearest lattice image of points."""
    tau = complex(lat.tau)
    images = [complex(p) + m + n * tau
              for p in points for m in range(-2, 3) for n in range(-2, 3)]

    def dist(t0, t1):
        a, b = start + t0 * span, start + t1 * span
        best = math.inf
        for s in images:
            t = min(max(((s - a) / (b - a)).real, 0.0), 1.0)
            best = min(best, abs(s - (a + t * (b - a))))
        return best

    panels, stack = [], [(0.0, 1.0)]
    while stack:
        t0, t1 = stack.pop()
        if (t1 - t0) * abs(span) <= dist(t0, t1):
            panels.append((t0, t1))
        elif t1 - t0 < 1e-6:
            raise ValueError("a singularity lies on the integration path")
        else:
            tm = 0.5 * (t0 + t1)
            stack += [(tm, t1), (t0, tm)]
    return sorted(panels)


def _panel_sum(f, panels, span):
    """Integral of samples f taken at the panels' nodes, panel by panel, the
    low-order rule's nodes first; raises if the two rules disagree."""
    low = high = 0.0
    k = 0
    for t0, t1 in panels:
        for j, (x, w) in enumerate(_GL):
            part = (t1 - t0) * np.dot(w, f[k:k + len(x)])
            k += len(x)
            if j == 0:
                low += part
            else:
                high += part
    if abs(high - low) > 1e-6 * (1.0 + abs(high)):
        raise ArithmeticError("graded Gauss-Legendre rules disagree")
    return complex(high * span)


def horizontal_closure(p_plus, p_minus):
    """oint g dh - conj(oint g^-1 dh): zero when the horizontal period closes."""
    return p_plus - p_minus.conjugate()


# ---------------------------------------------------------------------------
# plane immersions


def helicoid(u):
    """g = exp(i u), dh = du, basepoint 0."""
    x, y = u.real, u.imag
    return np.array([math.sin(x) * math.sinh(y), -math.cos(x) * math.sinh(y), x])


def catenoid(u):
    """g = u, dh = du / u, basepoint 1."""
    return np.array([
        (1.0 - 0.5 * (1.0 / u + u)).real,
        (0.5j * (u - 1.0 / u)).real,
        math.log(abs(u)),
    ])


def enneper(u):
    """g = u, dh = u du, basepoint 0."""
    return np.array([
        0.5 * (u - u ** 3 / 3).real,
        -0.5 * (u + u ** 3 / 3).imag,
        0.5 * (u * u).real,
    ])


def confirm_enneper_pair(ua, ub):
    """Polish a probe pair to a genuine two-point coincidence F(u1) = F(u2).

    Returns (residual norm, u1, u2) of the least-squares solution started
    at the pair's parameter values.
    """
    def residual(x):
        return enneper(complex(x[0], x[1])) - enneper(complex(x[2], x[3]))

    sol = least_squares(
        residual, [ua.real, ua.imag, ub.real, ub.imag], xtol=1e-14, ftol=1e-14
    )
    u1 = complex(sol.x[0], sol.x[1])
    u2 = complex(sol.x[2], sol.x[3])
    return float(np.linalg.norm(residual(sol.x))), u1, u2
