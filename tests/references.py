"""References for what helikon computes another way.

The mesh takes its vertex normals from g and its edge lengths from the
conformal factor in batches, and builds its spanning tree a level at a
time; the tests compare them with these one-point formulas and with a
vertex-by-vertex walk.  The involution report screens its samples for
poles with array calls; the tests compare its picks with the screen one
point at a time (`screened_samples`).  Expression text is read by Python's
own parser; the tests compare its trees with the recursive-descent parser
below (`parse_expr`), which defines the grammar the scene files were
written in.  Two checks that no command runs live here too: the exactness
of g dh and dh / g over a cycle basis (`exactness_check`), and the pairing
of g's poles with its zeros under an involution (`pole_zero_pairing`).
"""

import math
import re
from collections import deque

import numpy as np

from helikon.divisor import locate_divisor
from helikon.errors import ExprSyntaxError, PoleAt, SampleAtPole
from helikon.expr import (
    _ELLIPTIC,
    Const,
    Elliptic,
    Exp,
    Expr,
    FormExpr,
    Var,
    _diff_node,
    _eval_node,
    _has_elliptic,
    add,
    div,
    eval_expr,
    mul,
    neg,
    power,
    sub,
)
from helikon.records import record
from helikon.surface import SAMPLE_SEED, _generic_samples, period_triples


def gauss_normal(data, p):
    """Unit normal as the inverse stereographic image of g(p)."""
    try:
        gv = eval_expr(data.g, p)
    except PoleAt:
        return np.array([0.0, 0.0, 1.0])
    # |g| > 1e8 is the north pole (|g|^2 > 1e16); tested before squaring,
    # which overflows for |g| above about 1.3e154; nan fails it too
    if not abs(gv) <= 1e8:
        return np.array([0.0, 0.0, 1.0])
    m2 = abs(gv) ** 2
    return np.array([2.0 * gv.real, 2.0 * gv.imag, m2 - 1.0]) / (m2 + 1.0)


def conformal_factor(data, p):
    """Pointwise conformal metric factor (|g| + 1/|g|) |dh| / 2."""
    h = abs(eval_expr(data.dh.coeff, p))
    try:
        m = abs(eval_expr(data.g, p))
    except PoleAt:
        return math.inf
    if m == 0:
        return math.inf if h > 0 else 0.0
    return 0.5 * (m + 1.0 / m) * h


def screened_samples(data, inv, n_samples=20):
    """The samples of involution_report, screened one scalar evaluation at
    a time: a candidate is kept unless g, g o I, dg/g or dh raises PoleAt
    there."""
    domain = data.domain
    dgg = data.log_gauss_form()
    samples = []
    attempts = 0
    while len(samples) < n_samples:
        cands = _generic_samples(
            domain, n_samples - len(samples), SAMPLE_SEED + attempts
        )
        for u in cands:
            try:
                eval_expr(data.g, u)
                eval_expr(data.g, inv.apply(u))
                eval_expr(dgg.coeff, u)
                eval_expr(data.dh.coeff, u)
                samples.append(u)
            except PoleAt:
                continue
        attempts += 1
        if attempts > 10:
            raise SampleAtPole("could not find pole-free generic samples")
    return samples


def breadth_first_tree(spec, basepoint):
    """The mesh's spanning tree, walked one vertex at a time from the
    included grid vertex nearest basepoint, each vertex's neighbours in the
    order +i, -i, +j, -j: (child, parent, depth) lists in breadth-first
    order, over the vertices it reaches."""
    mask = spec.inclusion_mask()
    index = -np.ones(mask.shape, dtype=int)
    index[mask] = np.arange(np.count_nonzero(mask))
    points = spec.grid_points()[mask]
    root = int(np.argmin(np.abs(points - basepoint)))
    root_ij = tuple(np.argwhere(mask)[root].tolist())
    child, parent, depth = [root], [-1], [0]
    seen = {root_ij}
    q = deque([(root_ij, 0)])
    while q:
        (i, j), d = q.popleft()
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if (
                0 <= a < spec.nx and 0 <= b < spec.ny
                and mask[a, b] and (a, b) not in seen
            ):
                seen.add((a, b))
                q.append(((a, b), d + 1))
                child.append(index[a, b])
                parent.append(index[i, j])
                depth.append(d + 1)
    return child, parent, depth


_NUMBER = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ExprSyntaxError(self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def accept(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def word(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def number(self):
        self.skip_ws()
        token = _NUMBER.match(self.text, self.pos).group()
        self.pos += len(token)
        try:
            return float(token)
        except ValueError:
            self.error(f"bad number {token!r}")

    def parse_expr(self):
        if self.accept("-"):
            node = neg(self.parse_term())
        else:
            node = self.parse_term()
        while True:
            if self.accept("+"):
                node = add(node, self.parse_term())
            elif self.accept("-"):
                node = sub(node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            if self.accept("*"):
                node = mul(node, self.parse_factor())
            elif self.accept("/"):
                node = div(node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        node = self.parse_atom()
        if self.accept("^"):
            self.skip_ws()
            sign = -1 if self.accept("-") else 1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if start == self.pos:
                self.error("expected integer exponent")
            return power(node, sign * int(self.text[start:self.pos]))
        return node

    def parse_atom(self):
        ch = self.peek()
        if ch == "(":
            self.expect("(")
            node = self.parse_expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return Const(complex(self.number()))
        if ch.isalpha():
            name = self.word()
            if name == "i":
                return Const(1j)
            if name == "u":
                return Var()
            if name == "exp" or name in _ELLIPTIC:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                if name == "exp":
                    return Exp(arg)
                return self.elliptic(name, arg)
            self.error(f"unknown name {name!r}")
        self.error(f"unexpected character {ch!r}")

    def elliptic(self, name, arg):
        # u plus a constant: no elliptic block inside (its derivative would
        # need a lattice), derivative 1, and a finite value at u = 0, which
        # is minus the shift
        if not _has_elliptic(arg):
            slope = _diff_node(arg, None)
            if isinstance(slope, Const) and abs(slope.value - 1.0) <= 1e-12:
                try:
                    return Elliptic(name, -complex(_eval_node(arg, 0j, None)))
                except PoleAt:
                    pass
        self.error(
            f"{name} argument must be u plus a constant, got a non-affine"
            " or rescaled argument"
        )


def parse_expr(text, domain):
    """Parse text into an Expr, or a FormExpr when it ends with du (or dz)."""
    stripped = text.strip()
    is_form = False
    for suffix in (" du", " dz"):
        if stripped.endswith(suffix):
            stripped = stripped[: -len(suffix)]
            is_form = True
            break
    else:
        if stripped in ("du", "dz"):
            stripped, is_form = "1", True
    parser = _Parser(stripped)
    node = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("trailing input")
    e = Expr(node, domain)
    if is_form:
        return FormExpr(e)
    return e


@record
class ExactnessReport:
    exact: bool
    vacuous: bool
    magnitudes: dict


def exactness_check(data, basis, tol=1e-10):
    """True iff g dh and (1/g) dh integrate to ~0 over every basis cycle."""
    rows = period_triples(data, basis.cycles, tol * 1e-2).tolist()
    mags = {
        label: max(abs(p_plus), abs(p_minus))
        for label, (p_plus, p_minus, _) in zip(basis.labels, rows)
    }
    vacuous = not mags
    return ExactnessReport(
        exact=all(m < tol for m in mags.values()), vacuous=vacuous, magnitudes=mags
    )


@record
class PairingReport:
    ok: bool
    vacuous: bool
    pairs: list
    violations: list


def pole_zero_pairing(data, inv, tol=1e-8):
    """Check each pole of g pairs with a zero of g of equal order at I(p),
    and that the zero set of dh is involution-stable."""
    domain = data.domain
    lat = domain.lattice
    if lat is None:
        return PairingReport(ok=True, vacuous=True, pairs=[], violations=[])
    gdiv = locate_divisor(data.g)
    violations = []
    pairs = []
    zeros = gdiv.zeros()
    for p, m in gdiv.poles():
        image = inv.apply(p)
        match = next(
            ((z, n) for z, n in zeros if lat.same_point(z, image, 1e-6)), None
        )
        if match is None:
            violations.append(f"pole at {p} (order {m}) has no zero at I(p)")
        elif match[1] != m:
            violations.append(
                f"pole at {p} order {m} pairs with zero of order {match[1]}"
            )
        else:
            pairs.append((p, match[0], m))
    dh_div = locate_divisor(data.dh)
    dh_zeros = [z for z, _ in dh_div.zeros()]
    for z in dh_zeros:
        image = inv.apply(z)
        if not any(lat.same_point(image, z2, 1e-6) for z2 in dh_zeros):
            violations.append(f"dh zero at {z} not involution-stable")
    vacuous = not gdiv.poles() and not gdiv.zeros()
    return PairingReport(
        ok=not violations, vacuous=vacuous, pairs=pairs, violations=violations
    )
