"""Symbolic meromorphic functions and one-forms.

A small AST over complex constants, the coordinate u, exp blocks, integer
powers, field operations, and the four elliptic blocks wp/wpp/zeta/sigma
with a complex shift (argument u - c).  Keeping the data symbolic makes
pullback under u -> c - u, logarithmic derivatives, and formal
differentiation exact instead of approximate.

Grammar (whitespace insignificant).  Python's parser reads the text, with
^ as **, so Python's precedence holds and a number is a Python literal too
(no 007):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | atom ['^' exponent]
    exponent := ['-'] int, either part possibly in parentheses
    atom     := number | 'i' | 'u' | func '(' expr ')' | '(' expr ')'
    func     := 'exp' | 'wp' | 'wpp' | 'zeta' | 'sigma'
    number   := [0-9.]+ ([eE] [+-]? [0-9]+)?

A minus that opens a product, outside parentheses, negates the whole
product: -2*u is -(2*u), not Python's (-2)*u.

A one-form is written "<expr> du" ("dz" is accepted as a synonym on plane
domains).

eval_expr makes one kernel call per elliptic kind, not one per block, and
evaluates a tuple of expressions on one domain together, as the divisor
integrand f'/f takes f and f', and the period forms g and dh.  The plan of
an expression, or of a tuple (kept by its first expression for the last
tuple it led), built on its first evaluation, lists the distinct shifts
of all the elliptic blocks in the order the tree walks first reach them
(a quotient's denominator before its numerator), and each kind's rows of
them.  The stacked arguments u - shift are reduced to the cell once, in
one kernels.Cells, and each kind's kernel is called on its rows; the
walks read each block's row.  Stacks stop at 15 * paths.BLOCK_PANELS
points, the size of an integrand call, so a shift on more points than
that is stacked alone.  The kernels give the same bits for a finite
point whatever array it sits in and whichever kernels share its Cells, so
stacking changes no finite value; when a stacked call raises PoleAt, the
walks run block by block, expression by expression in order, so the
error is the one that evaluating them one by one meets first, and it
names the point u, not the block's argument u - shift.
"""

import ast
import re
from bisect import bisect_left

import numpy as np

from . import kernels, paths
from .errors import DomainError, DomainViolation, ExprSyntaxError, PoleAt
from .lattice import Lattice
from .records import record

_DIV_FLOOR = 1e-150


# ---------------------------------------------------------------------------
# domains

@record(frozen=True)
class Plane:
    punctures: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "punctures", tuple(complex(p) for p in self.punctures)
        )

    @property
    def lattice(self):
        return None

    def distance(self, a, b):
        return abs(a - b)

    def same_point(self, a, b, tol=1e-9):
        return self.distance(a, b) < tol


@record(frozen=True)
class Torus:
    lat: Lattice
    punctures: tuple = ()

    def __post_init__(self):
        punctures = tuple(complex(p) for p in self.punctures)
        for idx, p in enumerate(punctures):
            for q in punctures[idx + 1:]:
                if self.lat.same_point(p, q):
                    raise DomainError(
                        f"punctures {p} and {q} coincide modulo the lattice"
                    )
        object.__setattr__(self, "punctures", punctures)

    @property
    def lattice(self):
        return self.lat

    def distance(self, a, b):
        return self.lat.distance(a, b)

    def same_point(self, a, b, tol=1e-9):
        return self.lat.same_point(a, b, tol)


def torus(tau, punctures=()):
    return Torus(Lattice(tau), tuple(punctures))


# ---------------------------------------------------------------------------
# AST nodes

class Node:
    __slots__ = ()

    def is_const(self, value=None):
        return False


@record(frozen=True)
class Const(Node):
    value: complex

    def is_const(self, value=None):
        return value is None or self.value == value


@record(frozen=True)
class Var(Node):
    pass


@record(frozen=True)
class Add(Node):
    a: Node
    b: Node


@record(frozen=True)
class Sub(Node):
    a: Node
    b: Node


@record(frozen=True)
class Mul(Node):
    a: Node
    b: Node


@record(frozen=True)
class Div(Node):
    a: Node
    b: Node


@record(frozen=True)
class Neg(Node):
    a: Node


@record(frozen=True)
class Pow(Node):
    base: Node
    n: int


@record(frozen=True)
class Exp(Node):
    arg: Node


# kind -> (name of its kernel in `kernels`, parity under u -> -u); the
# kernel is looked up at call time, so a wrapped kernel is the one called,
# once per stack of an Expr's plan (_elliptic_plan) in eval_expr
_ELLIPTIC = {
    "wp": ("wp", 1),
    "wpp": ("wp_prime", -1),
    "zeta": ("zeta_w", -1),
    "sigma": ("sigma_w", -1),
}


@record(frozen=True)
class Elliptic(Node):
    """The elliptic block kind(u - shift), kind one of _ELLIPTIC."""
    kind: str
    shift: complex


# folding constructors: keep derivative/pullback output from ballooning

def add(a, b):
    if a.is_const(0):
        return b
    if b.is_const(0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a, b):
    if b.is_const(0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if a.is_const(0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if a.is_const(0) or b.is_const(0):
        return Const(0)
    if a.is_const(1):
        return b
    if b.is_const(1):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def div(a, b):
    if a.is_const(0):
        return Const(0)
    if b.is_const(1):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
        return Const(a.value / b.value)
    return Div(a, b)


def neg(a):
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def power(base, n):
    if n == 0:
        return Const(1)
    if n == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** n)
    return Pow(base, n)


# ---------------------------------------------------------------------------
# node-level operations

def _pole_check(u, small):
    # count_nonzero: the cheapest numpy "any" for a bool and for an array
    if np.count_nonzero(small):
        raise PoleAt(kernels.first_where(u, small))


def _eval_node(node, u, lat, values=None):
    """Value of node at u: a complex scalar, or an ndarray of points (the
    result then broadcasts against u).  values maps id(block) to the
    block's value at u (_stacked_values); without it, each elliptic block
    calls its kernel."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return u
    if isinstance(node, Add):
        return (_eval_node(node.a, u, lat, values)
                + _eval_node(node.b, u, lat, values))
    if isinstance(node, Sub):
        return (_eval_node(node.a, u, lat, values)
                - _eval_node(node.b, u, lat, values))
    if isinstance(node, Mul):
        return (_eval_node(node.a, u, lat, values)
                * _eval_node(node.b, u, lat, values))
    if isinstance(node, Div):
        den = _eval_node(node.b, u, lat, values)
        _pole_check(u, abs(den) < _DIV_FLOOR)
        return _eval_node(node.a, u, lat, values) / den
    if isinstance(node, Neg):
        return -_eval_node(node.a, u, lat, values)
    if isinstance(node, Pow):
        base = _eval_node(node.base, u, lat, values)
        if node.n < 0:
            _pole_check(u, abs(base) < _DIV_FLOOR)
        return base ** node.n
    if isinstance(node, Exp):
        return np.exp(_eval_node(node.arg, u, lat, values))
    if isinstance(node, Elliptic):
        if values is not None:
            return values[id(node)]
        kernel = getattr(kernels, _ELLIPTIC[node.kind][0])
        z = u - node.shift
        try:
            return kernel(z, lat)
        except PoleAt as exc:
            # the kernel names the first z at a pole; name its u instead
            raise PoleAt(kernels.first_where(u, z == exc.point)) from None
    raise TypeError(f"unknown node {node!r}")


def _elliptic_plan(nodes):
    """(shifts, kinds) of the elliptic blocks of nodes, walked in order as
    _eval_node reaches them: the distinct shifts of all kinds in the order
    the walk first reaches them, and for each kind, in the order the walk
    first reaches it, (kernel name, its rows of shifts in ascending order,
    the ids of its blocks on each row)."""
    kinds = {}  # kind -> {repr(shift): [id(block)]}
    shifts = {}  # repr(shift) -> shift, in the order first reached

    def walk(n):
        if isinstance(n, Elliptic):
            # repr, not ==, tells -0.0 from 0.0, as u - shift does
            key = repr(n.shift)
            shifts.setdefault(key, n.shift)
            kinds.setdefault(n.kind, {}).setdefault(key, []).append(id(n))
        elif isinstance(n, Div):
            walk(n.b)  # the denominator first, as _eval_node takes it
            walk(n.a)
        else:
            for attr in ("a", "b", "base", "arg"):
                child = getattr(n, attr, None)
                if child is not None:
                    walk(child)

    for node in nodes:
        walk(node)
    row = {key: i for i, key in enumerate(shifts)}
    return (
        np.array(list(shifts.values()), dtype=complex),
        [
            (
                _ELLIPTIC[kind][0],
                sorted(row[key] for key in rows),
                [rows[key] for key in sorted(rows, key=row.get)],
            )
            for kind, rows in kinds.items()
        ],
    )


def _stacked_values(plan, u, lat):
    """{id(block): value at u} for the blocks of plan: per stack of shifted
    arguments u - shift, one kernels.Cells and one kernel call per kind on
    its rows.  A stack holds every shift, split so that none exceeds
    15 * paths.BLOCK_PANELS points unless one shift alone does."""
    shifts, kinds = plan
    per_call = max(1, 15 * paths.BLOCK_PANELS // max(u.size, 1))
    axes = (-1,) + (1,) * u.ndim
    values = {}
    for lo in range(0, shifts.size, per_call):
        calls = kinds  # one stack, the common case
        if per_call < shifts.size:
            calls = []
            for name, rows, ids in kinds:
                a, b = bisect_left(rows, lo), bisect_left(rows, lo + per_call)
                if a < b:
                    calls.append(
                        (name, [r - lo for r in rows[a:b]], ids[a:b]))
        cells = kernels.Cells(u - shifts[lo:lo + per_call].reshape(axes), lat,
                              [name for name, _, _ in calls])
        for name, index, ids in calls:
            rows = getattr(kernels, name)(kernels.Rows(cells, index), lat)
            for row, blocks in zip(rows, ids):
                for block in blocks:
                    values[block] = row
    return values


def _diff_node(node, lat):
    if isinstance(node, (Const,)):
        return Const(0)
    if isinstance(node, Var):
        return Const(1)
    if isinstance(node, Add):
        return add(_diff_node(node.a, lat), _diff_node(node.b, lat))
    if isinstance(node, Sub):
        return sub(_diff_node(node.a, lat), _diff_node(node.b, lat))
    if isinstance(node, Mul):
        return add(
            mul(_diff_node(node.a, lat), node.b),
            mul(node.a, _diff_node(node.b, lat)),
        )
    if isinstance(node, Div):
        return div(
            sub(
                mul(_diff_node(node.a, lat), node.b),
                mul(node.a, _diff_node(node.b, lat)),
            ),
            power(node.b, 2),
        )
    if isinstance(node, Neg):
        return neg(_diff_node(node.a, lat))
    if isinstance(node, Pow):
        return mul(
            mul(Const(node.n), power(node.base, node.n - 1)),
            _diff_node(node.base, lat),
        )
    if isinstance(node, Exp):
        return mul(_diff_node(node.arg, lat), node)
    if isinstance(node, Elliptic):
        kind, shift = node.kind, node.shift
        if kind == "wp":
            return Elliptic("wpp", shift)
        if kind == "wpp":
            # wp'' = 6 wp^2 - g2/2
            return sub(
                mul(Const(6), power(Elliptic("wp", shift), 2)),
                Const(lat.g2() / 2.0),
            )
        if kind == "zeta":
            return neg(Elliptic("wp", shift))
        return mul(node, Elliptic("zeta", shift))
    raise TypeError(f"unknown node {node!r}")


def _pullback_node(node, c):
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return sub(Const(c), Var())
    if isinstance(node, Add):
        return add(_pullback_node(node.a, c), _pullback_node(node.b, c))
    if isinstance(node, Sub):
        return sub(_pullback_node(node.a, c), _pullback_node(node.b, c))
    if isinstance(node, Mul):
        return mul(_pullback_node(node.a, c), _pullback_node(node.b, c))
    if isinstance(node, Div):
        return div(_pullback_node(node.a, c), _pullback_node(node.b, c))
    if isinstance(node, Neg):
        return neg(_pullback_node(node.a, c))
    if isinstance(node, Pow):
        return power(_pullback_node(node.base, c), node.n)
    if isinstance(node, Exp):
        return Exp(_pullback_node(node.arg, c))
    if isinstance(node, Elliptic):
        # f(c - u - a) = f(-(u - (c - a))), then use parity
        block = Elliptic(node.kind, c - node.shift)
        return block if _ELLIPTIC[node.kind][1] > 0 else neg(block)
    raise TypeError(f"unknown node {node!r}")


def _logderiv_node(node, lat):
    """Log-derivative node, with the exact simplifications for exp/products."""
    if isinstance(node, Mul):
        return add(_logderiv_node(node.a, lat), _logderiv_node(node.b, lat))
    if isinstance(node, Div):
        return sub(_logderiv_node(node.a, lat), _logderiv_node(node.b, lat))
    if isinstance(node, Neg):
        return _logderiv_node(node.a, lat)
    if isinstance(node, Pow):
        return mul(Const(node.n), _logderiv_node(node.base, lat))
    if isinstance(node, Exp):
        return _diff_node(node.arg, lat)
    if isinstance(node, Const):
        return Const(0)
    if isinstance(node, Elliptic) and node.kind == "sigma":
        return Elliptic("zeta", node.shift)
    return div(_diff_node(node, lat), node)


def _has_elliptic(node):
    if isinstance(node, Elliptic):
        return True
    for attr in ("a", "b", "base", "arg"):
        child = getattr(node, attr, None)
        if child is not None and _has_elliptic(child):
            return True
    return False


def _format_complex(z):
    z = complex(z)
    if z.imag == 0:
        if z.real < 0:
            return f"(0 - {_format_real(-z.real)})"
        return _format_real(z.real)
    if z.real == 0:
        if z.imag == 1:
            return "i"
        if z.imag == -1:
            return "(0-1*i)"
        return f"({_format_real(z.imag)}*i)"
    sign = "+" if z.imag >= 0 else "-"
    return f"({_format_real(z.real)}{sign}{_format_real(abs(z.imag))}*i)"


def _format_real(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _print_node(node):
    if isinstance(node, Const):
        return _format_complex(node.value)
    if isinstance(node, Var):
        return "u"
    if isinstance(node, Add):
        return f"({_print_node(node.a)} + {_print_node(node.b)})"
    if isinstance(node, Sub):
        return f"({_print_node(node.a)} - {_print_node(node.b)})"
    if isinstance(node, Mul):
        return f"({_print_node(node.a)} * {_print_node(node.b)})"
    if isinstance(node, Div):
        return f"({_print_node(node.a)} / {_print_node(node.b)})"
    if isinstance(node, Neg):
        return f"(0 - {_print_node(node.a)})"
    if isinstance(node, Pow):
        if node.n < 0:
            return f"(1 / {_print_node(node.base)}^{-node.n})"
        return f"{_print_node(node.base)}^{node.n}"
    if isinstance(node, Exp):
        return f"exp({_print_node(node.arg)})"
    if node.shift == 0:
        return f"{node.kind}(u)"
    return f"{node.kind}(u - {_format_complex(node.shift)})"


# ---------------------------------------------------------------------------
# public wrappers

class Expr:
    """A meromorphic function on its domain."""

    def __init__(self, node, domain):
        if domain.lattice is None and _has_elliptic(node):
            raise DomainError("elliptic blocks require a torus domain")
        self.node = node
        self.domain = domain
        # (others, _elliptic_plan) of this expression alone (others = ())
        # and of the last tuple it led, built on their first evaluation; one
        # tuple only, as a caller may pair it with a new expression each time
        self._plan = self._joint = None

    # -- arithmetic sugar (same-domain operands or plain numbers) -----------
    def _coerce(self, other):
        if isinstance(other, Expr):
            return other.node
        return Const(complex(other))

    def __add__(self, other):
        return Expr(add(self.node, self._coerce(other)), self.domain)

    def __sub__(self, other):
        return Expr(sub(self.node, self._coerce(other)), self.domain)

    def __mul__(self, other):
        return Expr(mul(self.node, self._coerce(other)), self.domain)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Expr(div(self.node, self._coerce(other)), self.domain)

    def __neg__(self):
        return Expr(neg(self.node), self.domain)

    # -- semantics ----------------------------------------------------------
    def __call__(self, u):
        return eval_expr(self, u)

    def to_text(self):
        return _print_node(self.node)

    def __repr__(self):
        return f"Expr({self.to_text()!r})"


class FormExpr:
    """A meromorphic one-form h(u) du on the domain of its coefficient."""

    def __init__(self, coeff):
        self.coeff = coeff

    @property
    def domain(self):
        return self.coeff.domain

    def __add__(self, other):
        return FormExpr(self.coeff + other.coeff)

    def __sub__(self, other):
        return FormExpr(self.coeff - other.coeff)

    def __neg__(self):
        return FormExpr(-self.coeff)

    def scale(self, k):
        return FormExpr(self.coeff * k)

    def __call__(self, u):
        return eval_expr(self.coeff, u)

    def to_text(self):
        return f"{self.coeff.to_text()} du"

    def __repr__(self):
        return f"FormExpr({self.to_text()!r})"


def eval_expr(e, u):
    """Value of the expression at u; raises PoleAt/DomainViolation.

    A complex for a scalar u; for an ndarray u, an array of its shape (and
    the errors name the first offending point).  A scalar runs as a
    one-point array, so that an overflow gives inf there too.

    e may also be a tuple of expressions on one domain: their values, as a
    tuple, from one puncture screen and one plan.  The error is the first
    that evaluating them one by one, in order, meets.
    """
    joint = isinstance(e, tuple)
    exprs = [x.coeff if isinstance(x, FormExpr) else x
             for x in (e if joint else (e,))]
    first, others = exprs[0], tuple(exprs[1:])
    domain = first.domain
    for x in others:
        if x.domain is not domain and x.domain != domain:
            raise DomainError("expressions evaluated together need one domain")
    scalar = np.ndim(u) == 0
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    if domain.punctures:
        # every point (a row) against every puncture (a column) at once
        hit = domain.same_point(u[..., None], domain.punctures, 1e-10)
        if np.count_nonzero(hit):
            where = kernels.first_where(u, hit.any(axis=-1))
            raise DomainViolation(f"u = {where} is a declared puncture")
    cached = first._joint if others else first._plan
    if cached is None or cached[0] != others:
        cached = (others, _elliptic_plan([x.node for x in exprs]))
        if others:
            first._joint = cached
        else:
            first._plan = cached
    plan = cached[1]
    try:
        values = _stacked_values(plan, u, domain.lattice)
    except PoleAt:
        values = None  # block by block: the first error of that order
    out = []
    for x in exprs:
        val = _eval_node(x.node, u, domain.lattice, values)
        if np.ndim(val) == 0:
            val = np.full(u.shape, val)
        out.append(complex(val[0]) if scalar else val)
    return tuple(out) if joint else out[0]


def reciprocal_values(values, u):
    """1 / values, where values were taken at the points u; raises PoleAt
    where a value vanishes, as evaluating a quotient does."""
    _pole_check(u, abs(values) < _DIV_FLOOR)
    return 1 / values


def differentiate(e):
    """Formal derivative d/du as a new Expr (or coefficientwise for forms)."""
    if isinstance(e, FormExpr):
        return FormExpr(differentiate(e.coeff))
    return Expr(_diff_node(e.node, e.domain.lattice), e.domain)


def log_derivative(g):
    """The one-form dg/g."""
    return FormExpr(Expr(_logderiv_node(g.node, g.domain.lattice), g.domain))


def pullback(e, inv):
    """Pullback under the Involution inv, u -> c - u.

    Functions compose; forms pick up the Jacobian d(c-u) = -du.
    """
    c = inv.center
    if isinstance(e, FormExpr):
        coeff = e.coeff
        return FormExpr(Expr(neg(_pullback_node(coeff.node, c)), coeff.domain))
    return Expr(_pullback_node(e.node, c), e.domain)


# ---------------------------------------------------------------------------
# involutions

class Involution:
    """The affine involution u -> c - u with its fixed points."""

    def __init__(self, center, domain, p0=None):
        self.center = complex(center)
        self.domain = domain
        lat = domain.lattice
        periods = () if lat is None else lat.half_periods()
        fixed = tuple(self.center / 2.0 + w for w in (0.0, *periods))
        self.fixed_points = fixed
        if p0 is None:
            p0 = fixed[0]
        else:
            p0 = complex(p0)
            if not any(domain.same_point(p0, f, 1e-9) for f in fixed):
                raise ValueError(f"p0 = {p0} is not a fixed point")
        self.p0 = p0

    def apply(self, u):
        return self.center - complex(u)


# ---------------------------------------------------------------------------
# parser: Python's own, with ^ read as **, and a whitelist to Node trees

_NUMBER = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?")
# refused before Python reads the text: a character the grammar lacks (so no
# comment, comma, keyword argument or non-ASCII name), and ** as written
_STRAY = re.compile(r"[^0-9A-Za-z.+\-*/^()\s]|\*\*")
_FOLDS = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: div}
_PRODUCT = (ast.Mult, ast.Div)


def _is_minus(node):
    return isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)


class _Reader:
    """Node trees of a text's Python syntax tree, for the grammar only."""

    def __init__(self, text):
        self.text = text
        self.src = re.sub(r"\s", " ", text).replace("^", "**")
        # column in src -> offset in text; each ^ is two columns of src
        self.cols = [
            k for k, c in enumerate(text) for _ in c.replace("^", "**")
        ] + [len(text)]

    def error(self, node, message):
        start, end = self.cols[node.col_offset], self.cols[node.end_col_offset]
        raise ExprSyntaxError(start, f"{message} {self.text[start:end]!r}")

    def number(self, node, kinds):
        # an int or float spelled as _NUMBER allows: no 0x10, 1e5j, True or ...
        return (
            isinstance(node, ast.Constant) and type(node.value) in kinds
            and _NUMBER.fullmatch(self.src, node.col_offset,
                                  node.end_col_offset)
        )

    def read(self, node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, _PRODUCT):
            return self.product(node)
        if isinstance(node, ast.BinOp) and type(node.op) in _FOLDS:
            fold = _FOLDS[type(node.op)]
            return fold(self.read(node.left), self.read(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, n = self.read(node.left), self.exponent(node.right)
            try:
                return power(base, n)
            except (ZeroDivisionError, OverflowError):
                self.error(node, "a constant power with no finite value:")
        if _is_minus(node):
            return neg(self.read(node.operand))
        if literal := self.number(node, (int, float)):
            return Const(complex(float(literal.group())))
        if isinstance(node, ast.Name) and node.id in ("i", "u"):
            return Const(1j) if node.id == "i" else Var()
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("exp", *_ELLIPTIC) and len(node.args) == 1
            and node.func.col_offset == node.col_offset  # not (exp)(u)
        ):
            return self.call(node)
        self.error(node, "not in the grammar:")

    def product(self, node):
        # Python reads -a*b as (-a)*b; the grammar negates the whole product
        # when a minus opens it outside parentheses, that is, at its column
        links, first = [], node
        while (
            isinstance(first, ast.BinOp) and isinstance(first.op, _PRODUCT)
            and first.col_offset == node.col_offset
        ):
            links.append(first)
            first = first.left
        negated = _is_minus(first) and first.col_offset == node.col_offset
        tree = self.read(first.operand if negated else first)
        for link in reversed(links):
            tree = _FOLDS[type(link.op)](tree, self.read(link.right))
        return neg(tree) if negated else tree

    def exponent(self, node):
        sign, digits = (-1, node.operand) if _is_minus(node) else (1, node)
        if not self.number(digits, (int,)):
            self.error(node, "expected an integer exponent, got")
        return sign * digits.value

    def call(self, node):
        name, arg = node.func.id, self.read(node.args[0])
        if name == "exp":
            return Exp(arg)
        # an elliptic block takes u plus a constant: no elliptic block inside
        # (its derivative would need a lattice), derivative 1, and a finite
        # value at u = 0, which is minus the shift
        if not _has_elliptic(arg):
            slope = _diff_node(arg, None)
            if isinstance(slope, Const) and abs(slope.value - 1.0) <= 1e-12:
                try:
                    return Elliptic(name, -complex(_eval_node(arg, 0j, None)))
                except PoleAt:
                    pass
        self.error(node, f"{name} argument must be u plus a constant, got")


def _parse_node(text):
    stray = _STRAY.search(text)
    if stray:
        raise ExprSyntaxError(stray.start(), f"unexpected {stray.group()!r}")
    reader = _Reader(text)
    try:
        return reader.read(ast.parse(reader.src, mode="eval").body)
    except SyntaxError as exc:
        # offset counts from 1, and is 0 or None at the end of the text
        at = min(exc.offset or 0, len(reader.cols)) - 1
        raise ExprSyntaxError(reader.cols[at], exc.msg) from None
    except RecursionError:
        raise ExprSyntaxError(0, "expression nested too deeply") from None


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
    e = Expr(_parse_node(stripped), domain)
    if is_form:
        return FormExpr(e)
    return e


def constant(value, domain):
    return Expr(Const(complex(value)), domain)


def coordinate(domain):
    return Expr(Var(), domain)
