"""Weierstrass elliptic kernels wp, wp', zeta, sigma by theta q-series.

The lattice is generated by 1 and tau; the nome is q = exp(i*pi*tau).
Quasi-period constants follow the full-period increment convention

    zeta(u + 1)   = zeta(u) + eta1,
    zeta(u + tau) = zeta(u) + eta2.

Every kernel takes a complex scalar (and returns a complex) or an ndarray of
points (and returns an array of the same shape).  The points are reduced to
the fundamental cell and theta_1, theta_1', theta_1'' come from one sin/cos
matrix of shape (points, N) contracted with the Lattice's coefficient arrays,
where N is fixed per Lattice by term_count (DLMF 20.2.1, 23.6.ii).
"""

import math

import numpy as np

from .errors import PoleAt

POLE_RADIUS = 1e-10


def term_count(im_tau, tol):
    """Number N of theta q-series terms (n = 0 .. N-1) kept for tolerance tol.

    After reduce_to_cell, v = pi*u0 has |Im v| <= pi*Im(tau)/2.  With
    k = 2n+1 and a = Im(tau), the n-th term of theta_1^(j)(v), j <= 3, is
    then at most

        2 k^3 |q|^((n+1/2)^2) cosh(k*pi*a/2) <= 2 |q|^(1/4) T_n,
        T_n = k^3 exp(-pi*a*(n^2 - 1/2)),

    that is T_n relative to the scale 2|q|^(1/4) of the leading term.  The
    ratio T_(n+1)/T_n falls with n, so once it is at most 1/2 the whole tail
    from n on is at most 2 T_n.  N is the least n with T_(n+1)/T_n <= 1/2
    and 2 T_n <= tol: the truncation error of theta_1, theta_1', theta_1''
    on the cell, and of theta_1'''(0), is below tol * 2|q|^(1/4).
    """
    pa = math.pi * im_tau

    def bound(n):
        return (2 * n + 1) ** 3 * math.exp(-pa * (n * n - 0.5))

    n = 0
    while not (bound(n + 1) <= 0.5 * bound(n) and 2.0 * bound(n) <= tol):
        n += 1
    return n


def theta_coefficients(q, n_terms):
    """(k, c0, c1, c2): k = 2n+1 and (-1)^n q^((n+1/2)^2) times 1, k, k^2."""
    c0 = np.array(
        [(-1) ** n * q ** ((n + 0.5) ** 2) for n in range(n_terms)],
        dtype=complex,
    )
    k = 2.0 * np.arange(n_terms) + 1.0
    return k, c0, c0 * k, c0 * k * k


def first_where(u, mask):
    """The first point of u where mask holds; u itself when it is a scalar."""
    if np.ndim(u) == 0:
        return u
    return complex(np.asarray(u)[np.asarray(mask)].flat[0])


def reduce_to_cell(u, tau):
    """Split complex u = u0 + m + n*tau with the (s, t) coordinates of u0
    in [-1/2, 1/2); tau is complex too.

    Returns (u0, m, n): a complex and two ints for a scalar u, arrays (m and
    n integer-valued floats) for an array u.  |Im u0| <= Im(tau)/2.
    """
    t = u.imag / tau.imag
    s = u.real - t * tau.real
    m = np.floor(s + 0.5)
    n = np.floor(t + 0.5)
    u0 = u - m - n * tau
    if np.ndim(u) == 0:
        return complex(u0), int(m), int(n)
    return u0, m, n


def _angles(u0, lat):
    """(2n+1) pi u0 for every point and term: shape u0.shape + (N,)."""
    return np.multiply.outer(np.pi * u0, lat.k)


def theta1(u0, lat):
    """theta_1(pi*u0, q) for u0 in the fundamental cell."""
    return 2.0 * (np.sin(_angles(u0, lat)) @ lat.c0)


def theta1_prime(u0, lat):
    """d/dv theta_1(v, q) at v = pi*u0, u0 in the fundamental cell."""
    return 2.0 * (np.cos(_angles(u0, lat)) @ lat.c1)


def _sigma(u0, m, n, lat):
    s0 = np.exp(0.5 * lat.eta1 * u0 * u0) * theta1(u0, lat) / (np.pi * lat.t1p0)
    # quasi-periodicity back to u0 + m + n*tau; the factor is 1 in the cell
    eta = m * lat.eta1 + n * lat.eta2
    omega = m + n * lat.tau
    sign = 1.0 - 2.0 * np.mod(m + n + m * n, 2)
    return s0 * (sign * np.exp(eta * (u0 + 0.5 * omega)))


def _zeta(u0, m, n, lat):
    z0 = lat.eta1 * u0 + np.pi * theta1_prime(u0, lat) / theta1(u0, lat)
    return z0 + m * lat.eta1 + n * lat.eta2


def _wp(u0, m, n, lat):
    kv = _angles(u0, lat)
    sin_kv = np.sin(kv)
    t1 = sin_kv @ lat.c0
    t1p = np.cos(kv) @ lat.c1
    t1pp = -(sin_kv @ lat.c2)
    # the factors 2 of the three series cancel
    return -lat.eta1 + np.pi * np.pi * (t1p * t1p - t1pp * t1) / (t1 * t1)


def _wp_prime(u0, m, n, lat):
    # sigma(2u) = -wp'(u) sigma(u)^4
    both = np.stack([u0, 2.0 * u0])
    s1, s2 = _sigma(*reduce_to_cell(both, lat.tau), lat)
    return -s2 / s1 ** 4


def _kernel(body, u, lat, poles=True):
    """body(u0, m, n, lat) on the cell reduction of u; with poles, PoleAt
    if any point is within POLE_RADIUS of the lattice."""
    z = np.asarray(u, dtype=complex)
    u0, m, n = reduce_to_cell(z, lat.tau)
    if poles:
        near = np.abs(u0) < POLE_RADIUS
        if np.count_nonzero(near):
            raise PoleAt(first_where(u, near))
    out = body(u0, m, n, lat)
    return complex(out) if z.ndim == 0 else out


def wp(u, lat):
    """Weierstrass p-function on lat's lattice <1, tau>."""
    return _kernel(_wp, u, lat)


def wp_prime(u, lat):
    """Derivative of the p-function."""
    return _kernel(_wp_prime, u, lat)


def zeta_w(u, lat):
    """Weierstrass zeta function (quasi-periodic, increments eta1/eta2)."""
    return _kernel(_zeta, u, lat)


def sigma_w(u, lat):
    """Weierstrass sigma function (entire)."""
    return _kernel(_sigma, u, lat, poles=False)
