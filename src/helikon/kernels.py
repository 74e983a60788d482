"""Weierstrass elliptic kernels wp, wp', zeta, sigma by theta q-series.

On <1, tau>, zeta(u + 1) = zeta(u) + eta1 and zeta(u + tau) = zeta(u) + eta2.
The series run on the Lattice's reduced basis omega <1, tau'> = <1, tau>,
Im(tau') >= sqrt(3)/2, and scale back by homogeneity (DLMF 23.10(iv)):
wp, wp', zeta and sigma are omega^-2, omega^-3, omega^-1 and omega times
those of <1, tau'> at v = u / omega.  On its cell they sum 2 <= N <= 4
terms (term_count) of Lattice.terms in the powers w^(2n+1), w = exp(i*pi*v0)
(DLMF 20.2.1).  A kernel takes a complex scalar or an ndarray and returns
the same; a scalar runs as a one-point array.  It acts point by point, bit
for bit: a point gets the same value alone and anywhere in an array of any
size and shape, so eval_expr may stack an expression's blocks into one
call.  numpy reuses a temporary of 256 KiB or more (16,384 complex points)
in place, so that v0 * (0.5 * eta1 * v0 + eta) in sigma, say, becomes an
in-place product, and its in-place complex product rounds otherwise than
the out-of-place one; so _kernel runs the series on slices of at most
KERNEL_SLICE = 8,192 points.
"""

import math

import numpy as np

from .errors import PoleAt

POLE_RADIUS = 1e-10
# the most points a kernel body takes at once (see above)
KERNEL_SLICE = 8192


def term_count(im_tau, tol):
    """Number N of theta q-series terms (n = 0 .. N-1) kept for tolerance tol.

    On the cell of <1, tau>, v = pi*u0 has |Im v| <= pi*a/2, a = Im(tau), so
    with k = 2n+1 the n-th term of theta_1^(j)(v), j <= 3, is at most
    2 k^3 |q|^((n+1/2)^2) cosh(k*pi*a/2) <= 2 |q|^(1/4) T_n, where
    T_n = k^3 exp(-pi*a*(n^2 - 1/2)); that of wp''s theta_4(2v, q^2) is at
    most 2 exp(-2*pi*a*n*(n-1)), 2 at n = 1 and below T_n from n = 2 on.
    T_(n+1)/T_n falls with n, so once it is at most 1/2 the tail from n on
    is at most 2 T_n.  N is the least n >= 2 with T_(n+1)/T_n <= 1/2 and
    2 T_n <= tol: the truncation error on the cell is below tol times the
    leading scale (2|q|^(1/4) of theta_1 .. theta_1''', 1 of theta_4).
    At a >= sqrt(3)/2 and tol = 1e-14, N <= 4.
    """
    pa = math.pi * im_tau

    def bound(n):
        return (2 * n + 1) ** 3 * math.exp(-pa * (n * n - 0.5))

    n = 2
    while not (bound(n + 1) <= 0.5 * bound(n) and 2.0 * bound(n) <= tol):
        n += 1
    return n


def odd_powers(v0):
    """(w^k, w^-k) for k = 1, 3, 5, .., w = exp(i*pi*v0): w and 1/w once per
    point, then one product with w^2 and 1/w^2 per k."""
    w = np.exp(1j * np.pi * v0)
    wi = 1.0 / w
    w2, wi2 = w * w, wi * wi
    while True:
        yield w, wi
        w, wi = w * w2, wi * wi2


def theta_sums(v0, terms, count):
    """The first count of A_j = sum_n c k^j (w^k - (-1)^j w^-k), j = 0..2,
    with w = exp(i*pi*v0) and the Lattice.terms of tau: theta_1, theta_1',
    theta_1'' at pi*v0 are q^(1/4) times (-i A_0, A_1, i A_2)."""
    powers = odd_powers(v0)
    w, wi = next(powers)
    # the n = 0 term, where c k^j = 1
    sums = [w + wi if j % 2 else w - wi for j in range(count)]
    for coef in terms[1:]:
        w, wi = next(powers)
        pair = (w - wi, w + wi) if count > 1 else (w - wi,)
        for j in range(count):
            sums[j] += coef[j] * pair[j % 2]
    return sums


def first_where(u, mask):
    """The first point of u where mask holds."""
    return complex(np.asarray(u)[np.asarray(mask)].flat[0])


def cell_index(u, tau):
    """Integer-valued floats (m, n) with u - m - n*tau in the cell."""
    t = u.imag / tau.imag
    return np.floor(u.real - t * tau.real + 0.5), np.floor(t + 0.5)


def reduce_to_cell(u, tau):
    """Split u = u0 + m + n*tau with u0's (s, t) coordinates in [-1/2, 1/2),
    the cell (|Im u0| <= Im(tau)/2): a complex and two ints for a scalar u,
    arrays (m and n integer-valued floats) for an array u."""
    m, n = cell_index(u, tau)
    u0 = u - m - n * tau
    if np.ndim(u) == 0:
        return complex(u0), int(m), int(n)
    return u0, m, n


def _sigma(v0, m, n, lat):
    eta1, eta2 = lat.eta_r
    (a0,) = theta_sums(v0, lat.terms, 1)
    # omega sigma'(v0) = omega exp(eta1' v0^2 / 2) theta_1 / (pi theta_1'(0)),
    # times the quasi-periodicity factor back to v0 + m + n*tau'
    eta = m * eta1 + n * eta2
    expo = v0 * (0.5 * eta1 * v0 + eta) + 0.5 * eta * (m + n * lat.tau_r)
    sign = 1.0 - 2.0 * np.mod(m + n + m * n, 2)
    return lat.sigma_scale * sign * a0 * np.exp(expo)


def _zeta(v0, m, n, lat):
    eta1, eta2 = lat.eta_r
    a0, a1 = theta_sums(v0, lat.terms, 2)
    z0 = eta1 * v0 + 1j * np.pi * a1 / a0
    return (z0 + m * eta1 + n * eta2) / lat.omega


def _wp(v0, m, n, lat):
    a0, a1, a2 = theta_sums(v0, lat.terms, 3)
    x = a1 / a0
    return (np.pi ** 2 * (a2 / a0 - x * x) - lat.eta_r[0]) / lat.omega ** 2


def _wp_prime(v0, m, n, lat):
    # -2 pi^3 theta_1'(0)^2 theta_2 theta_3 theta_4 / theta_1^3 (DLMF 23.6.2),
    # theta_3 theta_4 (z, q) = theta_4(0, q^2) theta_4(2z, q^2) (DLMF 20.7.11):
    # unlike -pi^3 (log theta_1)''', nothing cancels where wp' is small.  With
    # x = c w^k, y = c w^-k, theta_2 sums (-1)^n (x + y) and theta_4(2z, q^2)
    # sums (-1)^n q^(2n^2) (w^4n + w^-4n) = (-1)^(n+1) (x x_ + y y_), x_ and
    # y_ the previous term's: no factor leaves theta_1's range on the cell
    powers = odd_powers(v0)
    x, y = next(powers)  # n = 0, c = 1
    a0, b, t = x - y, x + y, 1.0
    for i, (c, *_) in enumerate(lat.terms[1:], 1):
        w, wi = next(powers)
        x_, y_ = x, y  # freed before the next power
        x, y = c * w, c * wi
        # not x_ *= x: numpy rounds a one-point in-place complex product
        # otherwise than the same product inside a longer array
        x_ = x_ * x + y_ * y
        t = t + x_ if i % 2 else t - x_
        del x_, y_
        a0 += x - y
        b = b - (x + y) if i % 2 else b + (x + y)
    return lat.wpp_scale * (b * t) / (a0 * a0 * a0)


def _kernel(body, u, lat, poles=True):
    """body(v0, m, n, lat), u = omega (v0 + m + n*tau') with v0 in the cell
    of <1, tau'>, where omega v0 = u - (md + nb) - (mc + na)*tau carries no
    rounding of u / omega; with poles, PoleAt within POLE_RADIUS of a pole."""
    z = np.atleast_1d(np.asarray(u, dtype=complex))
    m, n = cell_index(z / lat.omega, lat.tau_r)
    a, b, c, d = lat.basis
    v0 = (z - (m * d + n * b) - (m * c + n * a) * lat.tau) / lat.omega
    if poles:
        near = np.abs(v0) < POLE_RADIUS / abs(lat.omega)
        if np.count_nonzero(near):
            raise PoleAt(first_where(z, near))
    if v0.size <= KERNEL_SLICE:
        out = body(v0, m, n, lat)
    else:
        # slice by slice, for the same bits (see the module docstring)
        v0, m, n = v0.ravel(), m.ravel(), n.ravel()
        out = np.concatenate([
            body(v0[s:s + KERNEL_SLICE], m[s:s + KERNEL_SLICE],
                 n[s:s + KERNEL_SLICE], lat)
            for s in range(0, len(v0), KERNEL_SLICE)
        ]).reshape(z.shape)
    return complex(out[0]) if np.ndim(u) == 0 else out


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
