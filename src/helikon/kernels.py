"""Weierstrass elliptic kernels wp, wp', zeta, sigma by theta q-series.

The lattice is generated by 1 and tau; the nome is q = exp(i*pi*tau).
Quasi-period constants follow the full-period increment convention

    zeta(u + 1)   = zeta(u) + eta1,
    zeta(u + tau) = zeta(u) + eta2.

The *_raw functions and the theta series work on plain complex scalars;
wp, wp_prime, zeta_w and sigma_w take a Lattice and reject poles.
"""

import cmath

from .errors import PoleAt

POLE_RADIUS = 1e-10

_MAX_TERMS = 400
_TINY = 1e-300


def theta1(v, q, tol):
    """Jacobi theta_1(v, q) by its sine q-series."""
    total = 0.0 + 0.0j
    sign = 1.0
    small = 0
    for n in range(_MAX_TERMS):
        half = n + 0.5
        term = sign * (q ** (half * half)) * cmath.sin((2 * n + 1) * v)
        total += term
        if abs(term) < tol * (abs(total) + _TINY):
            small += 1
            if small >= 2 and n >= 4:
                break
        else:
            small = 0
        sign = -sign
    return 2.0 * total


def theta1_prime(v, q, tol):
    """d/dv theta_1(v, q)."""
    total = 0.0 + 0.0j
    sign = 1.0
    small = 0
    for n in range(_MAX_TERMS):
        half = n + 0.5
        k = 2 * n + 1
        term = sign * k * (q ** (half * half)) * cmath.cos(k * v)
        total += term
        if abs(term) < tol * (abs(total) + _TINY):
            small += 1
            if small >= 2 and n >= 4:
                break
        else:
            small = 0
        sign = -sign
    return 2.0 * total


def theta1_dprime(v, q, tol):
    """d^2/dv^2 theta_1(v, q)."""
    total = 0.0 + 0.0j
    sign = 1.0
    small = 0
    for n in range(_MAX_TERMS):
        half = n + 0.5
        k = 2 * n + 1
        term = sign * k * k * (q ** (half * half)) * cmath.sin(k * v)
        total += term
        if abs(term) < tol * (abs(total) + _TINY):
            small += 1
            if small >= 2 and n >= 4:
                break
        else:
            small = 0
        sign = -sign
    return -2.0 * total


def theta1_triple_prime0(q, tol):
    """d^3/dv^3 theta_1 at v = 0."""
    total = 0.0 + 0.0j
    sign = 1.0
    for n in range(_MAX_TERMS):
        half = n + 0.5
        k = 2 * n + 1
        term = sign * (k ** 3) * (q ** (half * half))
        total += term
        if abs(term) < tol * (abs(total) + _TINY) and n >= 4:
            break
        sign = -sign
    return -2.0 * total


def reduce_to_cell(u, tau):
    """Split complex u = u0 + m + n*tau with the (s, t) coordinates of u0
    in [-1/2, 1/2); tau is complex too.

    Returns (u0, m, n).
    """
    im_tau = tau.imag
    t = u.imag / im_tau
    s = u.real - t * tau.real
    m = int(s + (0.5 if s >= 0 else -0.5))
    n = int(t + (0.5 if t >= 0 else -0.5))
    # nearest-integer rounding; ties are irrelevant at working precision
    u0 = u - m - n * tau
    return u0, m, n


def sigma_raw(u, tau, q, eta1, eta2, t1p0, tol):
    """Weierstrass sigma(u) on the lattice <1, tau>; t1p0 = theta1'(0, q)."""
    pi = cmath.pi
    u0, m, n = reduce_to_cell(u, tau)
    s0 = cmath.exp(0.5 * eta1 * u0 * u0) * theta1(pi * u0, q, tol) / (pi * t1p0)
    if m == 0 and n == 0:
        return s0
    eta = m * eta1 + n * eta2
    omega = m + n * tau
    sign = -1.0 if (m + n + m * n) % 2 else 1.0
    return sign * s0 * cmath.exp(eta * (u0 + 0.5 * omega))


def zeta_raw(u, tau, q, eta1, eta2, tol):
    """Weierstrass zeta(u) on the lattice <1, tau>."""
    pi = cmath.pi
    u0, m, n = reduce_to_cell(u, tau)
    v = pi * u0
    z0 = eta1 * u0 + pi * theta1_prime(v, q, tol) / theta1(v, q, tol)
    return z0 + m * eta1 + n * eta2


def wp_raw(u, tau, q, eta1, tol):
    """Weierstrass p-function on the lattice <1, tau>."""
    pi = cmath.pi
    u0, _, _ = reduce_to_cell(u, tau)
    v = pi * u0
    t1 = theta1(v, q, tol)
    t1p = theta1_prime(v, q, tol)
    t1pp = theta1_dprime(v, q, tol)
    return -eta1 + pi * pi * (t1p * t1p - t1pp * t1) / (t1 * t1)


def wp_prime_raw(u, tau, q, eta1, eta2, t1p0, tol):
    """Derivative of the p-function, via sigma(2u) = -wp'(u) sigma(u)^4."""
    u0, _, _ = reduce_to_cell(u, tau)
    s1 = sigma_raw(u0, tau, q, eta1, eta2, t1p0, tol)
    s2 = sigma_raw(2.0 * u0, tau, q, eta1, eta2, t1p0, tol)
    return -s2 / (s1 ** 4)


def _check_pole(u, tau):
    u0, _, _ = reduce_to_cell(complex(u), complex(tau))
    if abs(u0) < POLE_RADIUS:
        raise PoleAt(u)
    return u0


def wp(u, lat):
    """Weierstrass p-function on lat's lattice <1, tau>."""
    _check_pole(u, lat.tau)
    return wp_raw(complex(u), lat.tau, lat.q, lat.eta1, lat.series_tol)


def wp_prime(u, lat):
    """Derivative of the p-function."""
    _check_pole(u, lat.tau)
    return wp_prime_raw(
        complex(u), lat.tau, lat.q, lat.eta1, lat.eta2, lat.t1p0,
        lat.series_tol,
    )


def zeta_w(u, lat):
    """Weierstrass zeta function (quasi-periodic, increments eta1/eta2)."""
    _check_pole(u, lat.tau)
    return zeta_raw(
        complex(u), lat.tau, lat.q, lat.eta1, lat.eta2, lat.series_tol
    )


def sigma_w(u, lat):
    """Weierstrass sigma function (entire)."""
    return sigma_raw(
        complex(u), lat.tau, lat.q, lat.eta1, lat.eta2, lat.t1p0,
        lat.series_tol,
    )
