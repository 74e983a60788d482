"""Symbolic meromorphic functions and one-forms.

A small AST over complex constants, the coordinate u, exp blocks, integer
powers, field operations, and the four elliptic blocks wp/wpp/zeta/sigma
with a complex shift (argument u - c).  Keeping the data symbolic makes
pullback under u -> c - u, logarithmic derivatives, and formal
differentiation exact instead of approximate.

Grammar (whitespace insignificant):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' int)?
    atom   := number | 'i' | 'u' | func '(' expr ')' | '(' expr ')'
    func   := 'exp' | 'wp' | 'wpp' | 'zeta' | 'sigma'

A one-form is written "<expr> du" ("dz" is accepted as a synonym on plane
domains).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, DomainViolation, ExprSyntaxError, PoleAt
from .lattice import Lattice

_DIV_FLOOR = 1e-150


# ---------------------------------------------------------------------------
# domains

@dataclass(frozen=True)
class Plane:
    punctures: tuple = ()

    @property
    def lattice(self):
        return None

    def same_point(self, a, b, tol=1e-9):
        return abs(a - b) < tol

    def describe(self):
        return "plane"


@dataclass(frozen=True)
class PuncturedPlane:
    punctures: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "punctures", tuple(complex(p) for p in self.punctures)
        )

    @property
    def lattice(self):
        return None

    def same_point(self, a, b, tol=1e-9):
        return abs(a - b) < tol

    def describe(self):
        return f"plane minus {list(self.punctures)}"


@dataclass(frozen=True)
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

    def same_point(self, a, b, tol=1e-9):
        return self.lat.same_point(a, b, tol)

    def describe(self):
        return f"torus tau={self.lat.tau} minus {list(self.punctures)}"


def torus(tau, punctures=(), series_tol=1e-14):
    return Torus(Lattice(tau, series_tol), tuple(punctures))


# ---------------------------------------------------------------------------
# AST nodes

class Node:
    __slots__ = ()

    def is_const(self, value=None):
        return False


@dataclass(frozen=True)
class Const(Node):
    value: complex

    def is_const(self, value=None):
        return value is None or self.value == value


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Add(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Sub(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Mul(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Div(Node):
    a: Node
    b: Node


@dataclass(frozen=True)
class Neg(Node):
    a: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int


@dataclass(frozen=True)
class Exp(Node):
    arg: Node


@dataclass(frozen=True)
class EllipticBlock(Node):
    shift: complex


class WpB(EllipticBlock):
    pass


class WppB(EllipticBlock):
    pass


class ZetaB(EllipticBlock):
    pass


class SigmaB(EllipticBlock):
    pass


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


def _eval_node(node, u, lat):
    """Value of node at u: a complex scalar, or an ndarray of points (the
    result then broadcasts against u)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return u
    if isinstance(node, Add):
        return _eval_node(node.a, u, lat) + _eval_node(node.b, u, lat)
    if isinstance(node, Sub):
        return _eval_node(node.a, u, lat) - _eval_node(node.b, u, lat)
    if isinstance(node, Mul):
        return _eval_node(node.a, u, lat) * _eval_node(node.b, u, lat)
    if isinstance(node, Div):
        den = _eval_node(node.b, u, lat)
        _pole_check(u, abs(den) < _DIV_FLOOR)
        return _eval_node(node.a, u, lat) / den
    if isinstance(node, Neg):
        return -_eval_node(node.a, u, lat)
    if isinstance(node, Pow):
        base = _eval_node(node.base, u, lat)
        if node.n < 0:
            _pole_check(u, abs(base) < _DIV_FLOOR)
        return base ** node.n
    if isinstance(node, Exp):
        return np.exp(_eval_node(node.arg, u, lat))
    if isinstance(node, WpB):
        return kernels.wp(u - node.shift, lat)
    if isinstance(node, WppB):
        return kernels.wp_prime(u - node.shift, lat)
    if isinstance(node, ZetaB):
        return kernels.zeta_w(u - node.shift, lat)
    if isinstance(node, SigmaB):
        return kernels.sigma_w(u - node.shift, lat)
    raise TypeError(f"unknown node {node!r}")


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
    if isinstance(node, WpB):
        return WppB(node.shift)
    if isinstance(node, WppB):
        # wp'' = 6 wp^2 - g2/2
        return sub(
            mul(Const(6), power(WpB(node.shift), 2)),
            Const(lat.g2() / 2.0),
        )
    if isinstance(node, ZetaB):
        return neg(WpB(node.shift))
    if isinstance(node, SigmaB):
        return mul(node, ZetaB(node.shift))
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
    # elliptic blocks: f(c - u - a) = f(-(u - (c - a))), then use parity
    if isinstance(node, WpB):
        return WpB(c - node.shift)
    if isinstance(node, WppB):
        return neg(WppB(c - node.shift))
    if isinstance(node, ZetaB):
        return neg(ZetaB(c - node.shift))
    if isinstance(node, SigmaB):
        return neg(SigmaB(c - node.shift))
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
    if isinstance(node, SigmaB):
        return ZetaB(node.shift)
    return div(_diff_node(node, lat), node)


def _has_elliptic(node):
    if isinstance(node, EllipticBlock):
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
    names = {WpB: "wp", WppB: "wpp", ZetaB: "zeta", SigmaB: "sigma"}
    name = names[type(node)]
    if node.shift == 0:
        return f"{name}(u)"
    return f"{name}(u - {_format_complex(node.shift)})"


# ---------------------------------------------------------------------------
# public wrappers

class Expr:
    """A meromorphic function on its domain."""

    def __init__(self, node, domain):
        if domain.lattice is None and _has_elliptic(node):
            raise DomainError("elliptic blocks require a torus domain")
        self.node = node
        self.domain = domain

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

    def reciprocal(self):
        return Expr(div(Const(1), self.node), self.domain)

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
    the errors name the first offending point).
    """
    node = e.coeff.node if isinstance(e, FormExpr) else e.node
    domain = e.domain
    scalar = np.ndim(u) == 0
    u = complex(u) if scalar else np.asarray(u, dtype=complex)
    if domain.punctures:
        # every point (a row) against every puncture (a column) at once,
        # modulo the lattice on a torus
        points = np.asarray(u)[..., None]
        hit = domain.same_point(points, np.array(domain.punctures), 1e-10)
        hit = hit.any(axis=-1)
        if np.count_nonzero(hit):
            raise DomainViolation(
                f"u = {kernels.first_where(u, hit)} is a declared puncture"
            )
    val = _eval_node(node, u, domain.lattice)
    if scalar:
        return complex(val)
    return np.full(u.shape, val) if np.ndim(val) == 0 else val


def differentiate(e):
    """Formal derivative d/du as a new Expr (or coefficientwise for forms)."""
    if isinstance(e, FormExpr):
        return FormExpr(differentiate(e.coeff))
    return Expr(_diff_node(e.node, e.domain.lattice), e.domain)


def log_derivative(g):
    """The one-form dg/g."""
    return FormExpr(Expr(_logderiv_node(g.node, g.domain.lattice), g.domain))


def pullback(e, inv):
    """Pullback under the involution u -> c - u.

    Functions compose; forms pick up the Jacobian d(c-u) = -du.
    """
    c = complex(inv.center) if hasattr(inv, "center") else complex(inv)
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
        if lat is None:
            fixed = (self.center / 2.0,)
        else:
            half = self.center / 2.0
            fixed = tuple(
                half + w for w in (0.0, 0.5, lat.tau / 2.0, (1.0 + lat.tau) / 2.0)
            )
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

    def __call__(self, u):
        return self.apply(u)

    def is_fixed(self, u, tol=1e-9):
        return any(self.domain.same_point(u, f, tol) for f in self.fixed_points)


# ---------------------------------------------------------------------------
# parser

_FUNCS = ("exp", "wp", "wpp", "zeta", "sigma")


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
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "."
        ):
            self.pos += 1
        # exponent part
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        token = self.text[start:self.pos]
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
            if name in _FUNCS:
                self.expect("(")
                arg = self.parse_expr()
                self.expect(")")
                if name == "exp":
                    return Exp(arg)
                return self.elliptic(name, arg)
            self.error(f"unknown name {name!r}")
        self.error(f"unexpected character {ch!r}")

    def elliptic(self, name, arg):
        slope, offset = _affine_parts(arg)
        if slope is None or abs(slope - 1.0) > 1e-12:
            self.error(
                f"{name} argument must be u plus a constant, got a non-affine"
                " or rescaled argument"
            )
        shift = -offset
        cls = {"wp": WpB, "wpp": WppB, "zeta": ZetaB, "sigma": SigmaB}[name]
        return cls(shift)


def _affine_parts(node):
    """(slope, offset) for nodes affine in u; (None, None) otherwise."""
    if isinstance(node, Const):
        return 0.0 + 0.0j, node.value
    if isinstance(node, Var):
        return 1.0 + 0.0j, 0.0 + 0.0j
    if isinstance(node, Neg):
        s, o = _affine_parts(node.a)
        if s is None:
            return None, None
        return -s, -o
    if isinstance(node, (Add, Sub)):
        sa, oa = _affine_parts(node.a)
        sb, ob = _affine_parts(node.b)
        if sa is None or sb is None:
            return None, None
        if isinstance(node, Add):
            return sa + sb, oa + ob
        return sa - sb, oa - ob
    if isinstance(node, Mul):
        sa, oa = _affine_parts(node.a)
        sb, ob = _affine_parts(node.b)
        if sa is None or sb is None:
            return None, None
        if sa == 0:
            return oa * sb, oa * ob
        if sb == 0:
            return sa * ob, oa * ob
        return None, None
    if isinstance(node, Div):
        sa, oa = _affine_parts(node.a)
        sb, ob = _affine_parts(node.b)
        if sa is None or sb is None or sb != 0 or ob == 0:
            return None, None
        return sa / ob, oa / ob
    return None, None


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


def constant(value, domain):
    return Expr(Const(complex(value)), domain)


def coordinate(domain):
    return Expr(Var(), domain)
