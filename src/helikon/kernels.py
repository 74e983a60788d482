"""Weierstrass elliptic kernels wp, wp', zeta, sigma by theta q-series.

On <1, tau>, zeta(u + 1) = zeta(u) + eta1 and zeta(u + tau) = zeta(u) + eta2.
The series run on the Lattice's reduced basis omega <1, tau'> = <1, tau>,
Im(tau') >= sqrt(3)/2, and scale back by homogeneity (DLMF 23.10(iv)):
wp, wp', zeta and sigma are omega^-2, omega^-3, omega^-1 and omega times
those of <1, tau'> at v = u / omega.  On its cell they sum 2 <= N <= 4
terms (term_count) of Lattice.terms in the powers w^(2n+1), w = exp(i*pi*v0)
(DLMF 20.2.1).  A kernel takes a complex scalar, an ndarray, or rows of a
Cells, and returns a complex, an array of the same shape, or an array of
the rows' shape.

Cells is the work the four kernels share.  On each slice of at most
KERNEL_SLICE of its points it reduces them to the cell once (m, n, v0 and
the pole screen), and forms the odd powers of w and the theta sums A_j up
to the highest order its kernels read: sigma reads A_0, zeta A_0 and A_1,
wp A_0 .. A_2, and wp' the powers.  Each kernel's body reads that work.  A
kernel called on points is the one-kernel case: a Cells read slice by
slice by that kernel alone, which keeps nothing.  eval_expr builds one
Cells per stack of shifted arguments and calls each kind's kernel on its
rows.

A kernel acts point by point, bit for bit: a point gets the same value
alone and anywhere in an array of any size and shape, whichever kernels
share its Cells.  numpy reuses a temporary of 256 KiB or more (16,384
complex points) in place, so that v0 * (0.5 * eta1 * v0 + eta) in sigma,
say, would become an in-place product, and its in-place complex product
rounds otherwise than the out-of-place one; the slices keep every
temporary far below that.  KERNEL_SLICE = 1,920, a quarter of an integrand
call (15 * paths.BLOCK_PANELS points), is sized to the cache as well: a
slice's arrays are 30 KiB each, so the allocator reuses their memory
instead of mapping fresh pages for every temporary.
"""

import math

import numpy as np

from .errors import PoleAt

POLE_RADIUS = 1e-10
# the most points a kernel body takes at once (see above)
KERNEL_SLICE = 1920


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


def theta_sums(powers, terms, count):
    """The first count of A_j = sum_n c k^j (w^k - (-1)^j w^-k), j = 0..2,
    from the odd powers of w = exp(i*pi*v0), an iterator (odd_powers(v0)
    frees each power once it is summed), and the Lattice.terms of tau:
    theta_1, theta_1', theta_1'' at pi*v0 are q^(1/4) times
    (-i A_0, A_1, i A_2).  A_j takes the same steps whatever count is."""
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


class _Slice:
    """One slice of a Cells: its points z = omega (v0 + m + n*tau') with v0
    in the cell of <1, tau'>, where omega v0 = z - (md + nb) - (mc + na)*tau
    carries no rounding of z / omega; near, the points within POLE_RADIUS
    of a pole (None if no kernel screens); the theta sums; and the odd
    powers (None if no kernel reads them)."""

    __slots__ = ("z", "m", "n", "v0", "near", "sums", "powers")

    def __init__(self, z, lat, order, screen, keep_powers):
        m, n = cell_index(z / lat.omega, lat.tau_r)
        a, b, c, d = lat.basis
        v0 = (z - (m * d + n * b) - (m * c + n * a) * lat.tau) / lat.omega
        self.z, self.m, self.n, self.v0 = z, m, n, v0
        self.near = (np.abs(v0) < POLE_RADIUS / abs(lat.omega)
                     if screen else None)
        powers = odd_powers(v0)
        self.powers = None
        if keep_powers:  # wp' reads them all
            self.powers = [next(powers) for _ in lat.terms]
            powers = iter(self.powers)
        self.sums = theta_sums(powers, lat.terms, order) if order else []

    def part(self, lo, hi):
        """Points lo .. hi - 1 of the slice, as views."""
        if lo == 0 and hi == self.z.size:
            return self
        part = _Slice.__new__(_Slice)
        for name in ("z", "m", "n", "v0", "near"):
            value = getattr(self, name)
            setattr(part, name, None if value is None else value[lo:hi])
        part.sums = [a[lo:hi] for a in self.sums]
        part.powers = (None if self.powers is None
                       else [(w[lo:hi], wi[lo:hi]) for w, wi in self.powers])
        return part


class Cells:
    """The points u on lat, reduced to the cell once for the kernels named
    (of wp, wp_prime, zeta_w and sigma_w).  Slice k holds the points from
    k * KERNEL_SLICE on in u's flat order; it is built when a kernel first
    reads it, and kept for the others when several kernels read u."""

    def __init__(self, u, lat, names):
        z = np.asarray(u, dtype=complex)
        self.z, self.shape, self.lat = z.reshape(-1), z.shape, lat
        self.order = max(_KERNELS[name][1] for name in names)
        self.screen = any(_KERNELS[name][2] for name in names)
        self.keep_powers = "wp_prime" in names
        self.kept = {} if len(names) > 1 else None

    def slice(self, k):
        s = None if self.kept is None else self.kept.get(k)
        if s is None:
            s = _Slice(self.z[k * KERNEL_SLICE:(k + 1) * KERNEL_SLICE],
                       self.lat, self.order, self.screen, self.keep_powers)
            if self.kept is not None:
                self.kept[k] = s
        return s


class Rows:
    """Rows index (ascending, along u's first axis) of a Cells' points, or
    all of them, as one kernel argument: size counts the points (as np.size
    reads it), shape is that of the values, and parts lists (slice k, lo,
    hi) for the rows' points of each slice in turn."""

    def __init__(self, cells, index=None):
        self.cells = cells
        size = cells.z.size
        if index is None or len(index) == cells.shape[0]:
            self.shape, self.size, runs = cells.shape, size, [(0, size)]
            if size <= KERNEL_SLICE:
                self.parts = [(0, 0, size)]
                return
        else:
            width = size // cells.shape[0]
            self.shape = (len(index),) + cells.shape[1:]
            self.size = len(index) * width
            runs = []  # consecutive rows make one run
            for i in index:
                if runs and runs[-1][1] == i * width:
                    runs[-1] = (runs[-1][0], (i + 1) * width)
                else:
                    runs.append((i * width, (i + 1) * width))
        self.parts = [
            (k, max(a, k * KERNEL_SLICE) - k * KERNEL_SLICE,
             min(b, (k + 1) * KERNEL_SLICE) - k * KERNEL_SLICE)
            for a, b in runs
            for k in range(a // KERNEL_SLICE, -(-b // KERNEL_SLICE))
        ]


def _sigma(s, lat):
    eta1, eta2 = lat.eta_r
    m, n, v0 = s.m, s.n, s.v0
    # omega sigma'(v0) = omega exp(eta1' v0^2 / 2) theta_1 / (pi theta_1'(0)),
    # times the quasi-periodicity factor back to v0 + m + n*tau'
    eta = m * eta1 + n * eta2
    expo = v0 * (0.5 * eta1 * v0 + eta) + 0.5 * eta * (m + n * lat.tau_r)
    # (-1)^(m + n + mn) with np.mod's bits, nan included: a third of its
    # time on a full slice (11 against 33 us on a 2-core Xeon)
    x = m + n + m * n
    sign = 1 - 2 * (x - 2 * np.floor(x / 2))
    return lat.sigma_scale * sign * s.sums[0] * np.exp(expo)


def _zeta(s, lat):
    eta1, eta2 = lat.eta_r
    a0, a1 = s.sums[:2]
    z0 = eta1 * s.v0 + 1j * np.pi * a1 / a0
    return (z0 + s.m * eta1 + s.n * eta2) / lat.omega


def _wp(s, lat):
    a0, a1, a2 = s.sums[:3]
    x = a1 / a0
    return (np.pi ** 2 * (a2 / a0 - x * x) - lat.eta_r[0]) / lat.omega ** 2


def _wp_prime(s, lat):
    # -2 pi^3 theta_1'(0)^2 theta_2 theta_3 theta_4 / theta_1^3 (DLMF 23.6.2),
    # theta_3 theta_4 (z, q) = theta_4(0, q^2) theta_4(2z, q^2) (DLMF 20.7.11):
    # unlike -pi^3 (log theta_1)''', nothing cancels where wp' is small.  With
    # x = c w^k, y = c w^-k, theta_2 sums (-1)^n (x + y) and theta_4(2z, q^2)
    # sums (-1)^n q^(2n^2) (w^4n + w^-4n) = (-1)^(n+1) (x x_ + y y_), x_ and
    # y_ the previous term's: no factor leaves theta_1's range on the cell
    x, y = s.powers[0]  # n = 0, c = 1
    a0, b, t = x - y, x + y, 1.0
    for i, ((c, *_), (w, wi)) in enumerate(
            zip(lat.terms[1:], s.powers[1:]), 1):
        x_, y_ = x, y
        x, y = c * w, c * wi
        # not x_ *= x: numpy rounds a one-point in-place complex product
        # otherwise than the same product inside a longer array
        x_ = x_ * x + y_ * y
        t = t + x_ if i % 2 else t - x_
        a0 += x - y
        b = b - (x + y) if i % 2 else b + (x + y)
    return lat.wpp_scale * (b * t) / (a0 * a0 * a0)


# kernel -> (its body, the theta sums it reads, whether it screens poles)
_KERNELS = {
    "wp": (_wp, 3, True),
    "wp_prime": (_wp_prime, 0, True),
    "zeta_w": (_zeta, 2, True),
    "sigma_w": (_sigma, 1, False),
}


def _kernel(name, u, lat):
    """The kernel name at u, rows of a Cells or points on lat, slice by
    slice; PoleAt at the first point within POLE_RADIUS of a pole."""
    rows = u if isinstance(u, Rows) else Rows(Cells(u, lat, (name,)))
    body, _, poles = _KERNELS[name]
    cells = rows.cells
    parts = []
    for k, lo, hi in rows.parts:
        s = cells.slice(k).part(lo, hi)
        if poles and np.count_nonzero(s.near):
            raise PoleAt(first_where(s.z, s.near))
        parts.append(body(s, cells.lat))
    if len(parts) == 1:
        out = parts[0]
    else:
        out = np.concatenate(parts) if parts else np.empty(0, dtype=complex)
    out = out.reshape(rows.shape)
    return complex(out) if out.ndim == 0 else out


def wp(u, lat):
    """Weierstrass p-function on lat's lattice <1, tau>."""
    return _kernel("wp", u, lat)


def wp_prime(u, lat):
    """Derivative of the p-function."""
    return _kernel("wp_prime", u, lat)


def zeta_w(u, lat):
    """Weierstrass zeta function (quasi-periodic, increments eta1/eta2)."""
    return _kernel("zeta_w", u, lat)


def sigma_w(u, lat):
    """Weierstrass sigma function (entire)."""
    return _kernel("sigma_w", u, lat)
