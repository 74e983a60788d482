"""Expression language: parsing, evaluation, calculus, pullbacks."""

import cmath
import gc
import math
import random
import weakref

import numpy as np
import pytest
from references import parse_expr as reference_parse_expr

from helikon import kernels, paths
from helikon.errors import (
    DomainError,
    DomainViolation,
    ExprSyntaxError,
    PoleAt,
)
from helikon.expr import (
    Const,
    FormExpr,
    Involution,
    Mul,
    Neg,
    Plane,
    Pow,
    Sub,
    Var,
    _eval_node,
    constant,
    coordinate,
    differentiate,
    eval_expr,
    log_derivative,
    parse_expr,
    pullback,
    torus,
)
from helikon.kernels import sigma_w, wp, wp_prime, zeta_w
from helikon.solver import periodic_g1h_family

PLANE = Plane()
TORUS = torus(1j)


class TestParser:
    def test_closed_forms(self):
        e = parse_expr("exp(i*u)", PLANE)
        u = 0.7 - 0.2j
        assert abs(eval_expr(e, u) - cmath.exp(1j * u)) < 1e-14

    def test_arithmetic_precedence(self):
        e = parse_expr("1 + 2*u^2 - u/4", PLANE)
        u = 1.5 + 0.5j
        assert abs(eval_expr(e, u) - (1 + 2 * u**2 - u / 4)) < 1e-13

    def test_negative_powers(self):
        e = parse_expr("u^-2", Plane((0,)))
        assert abs(eval_expr(e, 2.0) - 0.25) < 1e-14

    def test_form_suffix(self):
        w = parse_expr("u^2 du", PLANE)
        assert isinstance(w, FormExpr)
        assert abs(eval_expr(w, 3.0) - 9.0) < 1e-14

    def test_elliptic_blocks(self):
        lat = TORUS.lattice
        for text, ref in (
            ("wp(u)", wp),
            ("wpp(u)", wp_prime),
            ("zeta(u)", zeta_w),
            ("sigma(u)", sigma_w),
        ):
            e = parse_expr(text, TORUS)
            u = 0.31 + 0.24j
            assert abs(eval_expr(e, u) - ref(u, lat)) < 1e-12

    def test_shifted_block(self):
        e = parse_expr("wp(u - 0.25)", TORUS)
        u = 0.6 + 0.3j
        assert abs(eval_expr(e, u) - wp(u - 0.25, TORUS.lattice)) < 1e-12

    def test_elliptic_on_plane_rejected(self):
        with pytest.raises(DomainError):
            parse_expr("wp(u)", PLANE)

    def test_non_affine_elliptic_argument_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("wp(u^2)", TORUS)
        with pytest.raises(ExprSyntaxError):
            parse_expr("zeta(2*u)", TORUS)
        # a pole at u = 0, and elliptic blocks inside the argument
        for text in ("wp(u + 1/0)", "wp(u + wp(u))", "sigma(u + wpp(u))"):
            with pytest.raises(ExprSyntaxError):
                parse_expr(text, TORUS)
        # u plus a constant, however written; the shift is minus the
        # argument's value at u = 0 (exp(0) is the one constant that the
        # grammar folds only at evaluation)
        for text, shift in (
            ("wp(u - 0.3*i)", 0.3j),
            ("zeta(2*(u/2) + 1)", -1),
            ("sigma(u + u - u)", 0),
            ("wpp(u + exp(0))", -1),
        ):
            node = parse_expr(text, TORUS).node
            assert node.kind == text.split("(")[0]
            assert node.shift == shift, text

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1 + * u", PLANE)
        assert err.value.position == 4

    def test_round_trip(self):
        texts = [
            "exp(i*u)",
            "wp(u - (0.25+0.5*i))",
            "zeta(u - 0.3) - zeta(u + 0.3)",
            "(1/u) * sigma(u - 0.1)",
            "u^3 - 2*u + (0-1*i)",
        ]
        for text in texts:
            dom = TORUS
            e = parse_expr(text, dom)
            rt = parse_expr(e.to_text(), dom)
            u = 0.41 + 0.19j
            assert abs(eval_expr(e, u) - eval_expr(rt, u)) < 1e-12


class GrammarTexts:
    """Seeded random texts of the grammar as the reference parser reads it:
    a minus only where an expression opens, exponents of at most one
    digit, numbers without leading zeros, random spaces and tabs."""

    def __init__(self, seed):
        self.r = random.Random(seed)

    def ws(self):
        return self.r.choice(["", "", "", " ", "  ", "\t"])

    def number(self):
        r = self.r
        return r.choice([
            str(r.randrange(10)), str(r.randrange(10, 1000)),
            f"{r.randrange(10)}.{r.randrange(100)}", f".{r.randrange(1, 100)}",
            f"{r.randrange(1, 10)}.",
            f"{r.randrange(1, 10)}.{r.randrange(10)}{r.choice('eE')}"
            f"{r.choice(['', '+', '-'])}{r.randrange(4)}",
        ])

    def atom(self, depth):
        r, ws = self.r, self.ws
        kind = r.randrange(6 if depth < 3 else 2)
        if kind == 0:
            return self.number()
        if kind == 1:
            return r.choice(["i", "u", "u"])
        if kind == 2:
            return "(" + ws() + self.expr(depth + 1) + ws() + ")"
        if kind == 3:
            return "exp" + ws() + "(" + self.expr(depth + 1) + ")"
        if kind == 4:
            # mostly u plus a constant, which an elliptic block needs
            arg = self.expr(depth + 1)
            if r.random() < 0.9:
                shift = r.choice(
                    [self.number(), self.number() + "*i",
                     f"({self.number()}+{self.number()}*i)"]
                )
                arg = "u" + ws() + r.choice("+-") + ws() + shift
            return r.choice(["wp", "wpp", "zeta", "sigma"]) + f"({arg})"
        return "u"

    def factor(self, depth):
        text = self.atom(depth)
        if self.r.random() < 0.2:
            sign = self.r.choice(["", "", "-"])
            text += f"{self.ws()}^{self.ws()}{sign}{self.ws()}"
            text += str(self.r.randrange(4))
        return text

    def term(self, depth):
        text = self.factor(depth)
        for _ in range(self.r.choice([0, 0, 1, 1, 2, 3])):
            text += self.ws() + self.r.choice("*/") + self.ws()
            text += self.factor(depth)
        return text

    def expr(self, depth=0):
        text = self.r.choice(["", "", "-", "- "]) + self.term(depth)
        for _ in range(self.r.choice([0, 0, 1, 2, 3])):
            text += self.ws() + self.r.choice("+-") + self.ws()
            text += self.term(depth)
        return text

    def mutated(self, text):
        # one inserted character that none of the grammar's changes can
        # come from: no digit (007) and no operator (2*-u)
        k = self.r.randrange(len(text) + 1)
        return text[:k] + self.r.choice(" ().eiux,#") + text[k:]


def outcome(parse, text):
    """repr of the tree text reads as (which shows signed zeros), or None
    where it is refused; the reference's folding of 0^-1 raises
    ZeroDivisionError."""
    try:
        return repr(parse(text, TORUS).node)
    except (ExprSyntaxError, ArithmeticError):
        return None


class TestGrammar:
    def test_matches_reference_parser(self):
        gen = GrammarTexts(20241015)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            text = gen.expr()
            for t in (text, gen.mutated(text)):
                ref = outcome(reference_parse_expr, t)
                assert outcome(parse_expr, t) == ref, repr(t)
                verdicts[ref is not None] += 1
        # both verdicts are well represented
        assert min(verdicts.values()) > 250

    @pytest.mark.parametrize(
        "text, reference, tree",
        [
            # a unary minus on any operand, and an exponent in parentheses
            ("2*-u", None, Mul(Const(2), Neg(Var()))),
            ("u - -1", None, Sub(Var(), Const(-1))),
            ("--u", None, Var()),
            ("u^(2)", None, Pow(Var(), 2)),
            ("u^(-2)", None, Pow(Var(), -2)),
            ("u^-(2)", None, Pow(Var(), -2)),
            # Python refuses integers with leading zeros, and reads only
            # ASCII digits
            ("007", Const(7), None),
            ("u^02", Pow(Var(), 2), None),
            ("u^\u0663", Pow(Var(), 3), None),
            # unchanged: what opens with a minus, and what both refuse
            ("-2*u", Neg(Mul(Const(2), Var())), Neg(Mul(Const(2), Var()))),
            ("(-2)*u", Mul(Const(-2), Var()), Mul(Const(-2), Var())),
            ("-u^2", Neg(Pow(Var(), 2)), Neg(Pow(Var(), 2))),
            ("u**2", None, None),
            ("+u", None, None),
            ("u # c", None, None),
            ("exp(u,)", None, None),
            ("(exp)(u)", None, None),
            ("0x10", None, None),
            ("1_000", None, None),
            ("3j", None, None),
            ("True", None, None),
            ("u^2.0", None, None),
            ("\x00", None, None),
        ],
    )
    def test_changes_from_reference(self, text, reference, tree):
        def read(parse):
            try:
                return parse(text, TORUS).node
            except ExprSyntaxError:
                return None

        assert read(reference_parse_expr) == reference
        assert read(parse_expr) == tree

    @pytest.mark.parametrize(
        "text", ["(" * 300 + "u" + ")" * 300, "-" * 5000 + "u"],
        ids=["300-parentheses", "5000-minuses"],
    )
    def test_deep_nesting_refused(self, text):
        # the recursive-descent parser ran out of stack on the first
        with pytest.raises(ExprSyntaxError):
            parse_expr(text, PLANE)

    @pytest.mark.parametrize(
        "text, position",
        [("0^-1 + u", 0), ("u + 10^400", 4), ("u*(1 - 1)^-2", 2)],
    )
    def test_constant_power_refused(self, text, position):
        # a constant power with no finite value is refused where it is
        # written, not raised as ZeroDivisionError or OverflowError
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text, PLANE)
        assert info.value.position == position

    def test_whitespace(self):
        # every character str.isspace accepts separates tokens
        e = parse_expr("1\n+\x0b2\xa0*\ru", PLANE)
        assert e.node == parse_expr("1 + 2*u", PLANE).node


class TestEvaluation:
    def test_division_pole(self):
        e = parse_expr("1/u", Plane((0,)))
        with pytest.raises(DomainViolation):
            eval_expr(e, 0.0)

    def test_plane_division_by_zero(self):
        e = parse_expr("1/u", PLANE)
        with pytest.raises(PoleAt):
            eval_expr(e, 0.0)

    def test_puncture_guard_mod_lattice(self):
        dom = torus(1j, (0.3j,))
        e = parse_expr("u", dom)
        with pytest.raises(DomainViolation):
            eval_expr(e, 0.3j + 1 + 1j)

    def test_expr_arithmetic_dunders(self):
        u_e = coordinate(PLANE)
        two = constant(2.0, PLANE)
        e = (u_e * u_e + two) / (u_e - two)
        z = 3.0 + 1.0j
        assert abs(e(z) - (z * z + 2) / (z - 2)) < 1e-13


class TestArrayEvaluation:
    POINTS = np.array([0.31 + 0.17j, -0.42 + 0.28j, 0.05 - 0.61j, 1.2 + 0.9j])

    @pytest.mark.parametrize(
        "text",
        ["exp(i*u) * u^-2", "sigma(u - 0.3*i) / sigma(u + 0.3*i)",
         "wpp(u - 0.1) - zeta(u)^2", "2 + i"],
    )
    def test_array_matches_points(self, text):
        e = parse_expr(text, torus(0.3 + 0.8j))
        values = eval_expr(e, self.POINTS)
        assert values.shape == self.POINTS.shape
        for u, v in zip(self.POINTS, values):
            one = eval_expr(e, u)
            assert type(one) is complex
            assert abs(v - one) <= 1e-14 * max(1.0, abs(one))

    def test_pole_at_one_point(self):
        e = parse_expr("1/(u - 0.05 + 0.61*i)", PLANE)
        with pytest.raises(PoleAt, match="0.05-0.61j"):
            eval_expr(e, self.POINTS)

    @pytest.mark.parametrize("kind", ("wp", "wpp", "zeta"))
    def test_shifted_block_names_u(self, kind):
        # kind(u - 0.2) has its poles at u = 0.2 and, a period on, at 1.2:
        # the error names u, not the kernel's argument u - 0.2, whether the
        # blocks are stacked or evaluated one by one
        e = parse_expr(f"{kind}(u - 0.2) * u", TORUS)
        for u, point in ((0.2, 0.2), (np.array([0.5, 1.2, 0.2]), 1.2)):
            for evaluate in (eval_expr, block_by_block):
                with pytest.raises(PoleAt) as exc:
                    evaluate(e, u)
                assert exc.value.point == point

    def test_puncture_at_one_point_mod_lattice(self):
        dom = torus(1j, (0.3j,))
        points = np.array([0.1 + 0.1j, 0.3j + 2 - 1j, 0.2 + 0.4j])
        with pytest.raises(DomainViolation):
            eval_expr(parse_expr("u", dom), points)


def block_by_block(e, u):
    """e at the points u with one kernel call per elliptic block: the
    values and the first error that eval_expr's stacked calls keep."""
    e = e.coeff if isinstance(e, FormExpr) else e
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    return _eval_node(e.node, u, e.domain.lattice)


def cell_points(n, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)


def bits(values):
    return np.asarray(values, dtype=complex).tobytes()


class TestStackedEvaluation:
    CANDIDATE = torus(1j, (0.3j, -0.3j))
    G = ("exp((0-3.141592653589793)*u)*sigma(u-0.3*i)*sigma(u+0.3*i+0.5)"
         "/(sigma(u+0.3*i)*sigma(u-0.3*i-0.5))")
    DH = "(0-i)*(zeta(u-0.3*i) - zeta(u+0.3*i)) du"

    def cases(self):
        g = parse_expr(self.G, self.CANDIDATE)
        dh = parse_expr(self.DH, self.CANDIDATE)
        # the solve family's member, as the end-regularity check reads it
        member = periodic_g1h_family({
            "tau": 1j, "E1": 0.25 + 0.1j,
            "zero_shifts": [-0.75 - 0.1j], "pole_shifts": [0.75 + 0.1j],
        })
        return {
            "g": g,  # 4 sigma blocks
            "dh": dh,  # 2 zeta blocks
            "dg/g": log_derivative(g),
            "d(dh)/du": differentiate(dh),
            # 6 zeta blocks on 4 shifts
            "family dg/g - i dh": (log_derivative(member.g)
                                   + member.dh.scale(-1j)),
        }

    @pytest.mark.parametrize("n", (1, 15, 1000, 3000))
    def test_stacking_changes_no_value(self, n):
        # at 3000 points the 4-shift stacks pass 15 * BLOCK_PANELS points
        u = cell_points(n)
        for name, e in self.cases().items():
            want = bits(block_by_block(e, u))
            got = eval_expr(e, complex(u[0]) if n == 1 else u)
            assert bits(got) == want, name
            assert bits(eval_expr(e, u)) == want, name  # the plan is kept

    def test_one_kernel_call_per_kind(self, monkeypatch):
        calls = []
        for name in ("sigma_w", "zeta_w"):
            kernel = getattr(kernels, name)

            def counted(u, lat, kernel=kernel, name=name):
                calls.append((name, np.size(u)))
                return kernel(u, lat)

            monkeypatch.setattr(kernels, name, counted)
        cases = self.cases()
        eval_expr(cases["g"], cell_points(60))
        assert calls == [("sigma_w", 240)]
        calls.clear()
        eval_expr(cases["dh"], cell_points(60))
        assert calls == [("zeta_w", 120)]
        calls.clear()
        eval_expr(cases["g"], cell_points(3000))
        assert calls == [("sigma_w", 6000)] * 2
        calls.clear()
        limit = 15 * paths.BLOCK_PANELS
        eval_expr(cases["g"], cell_points(limit + 1))
        assert calls == [("sigma_w", limit + 1)] * 4  # a block alone

    def test_pole_errors_follow_block_order(self):
        # the denominator sigma(u - 0.1) vanishes at u = 0.1, screened
        # before the numerator's zeta(u - 0.2) is reached; the stacked zeta
        # call meets its pole at u = 0.2, an earlier point
        e = parse_expr("zeta(u - 0.2) / sigma(u - 0.1)", TORUS)
        u = np.array([0.3, 0.2, 0.1, 0.4], dtype=complex)
        with pytest.raises(PoleAt) as want:
            block_by_block(e, u)
        with pytest.raises(PoleAt) as got:
            eval_expr(e, u)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert got.value.point == 0.1
        z = np.concatenate([u, cell_points(40)])
        sampled = paths.evaluate(lambda z: eval_expr(e, z), z)
        assert bits(sampled) == bits(
            paths.evaluate(lambda z: block_by_block(e, z), z))
        assert np.isnan(sampled).tolist() == [False, True, True] + [False] * 41


class TestJointEvaluation:
    """eval_expr on a tuple of expressions: one puncture screen, one plan
    and one kernel call per kind, with the values and errors of separate
    evaluations in the tuple's order."""

    CANDIDATE = TestStackedEvaluation.CANDIDATE

    def pairs(self):
        cases = TestStackedEvaluation().cases()
        g, dh = cases["g"], cases["dh"]
        out = {"g, dh": (g, dh), "dh, g": (dh, g)}
        for name in ("g", "dh"):
            f = cases[name].coeff if name == "dh" else cases[name]
            out[f"{name}, d{name}"] = (f, differentiate(f))
        f = parse_expr("wp(u - 0.1)", TORUS)
        out["wp, wpp"] = (f, differentiate(f))
        out["wpp, wp"] = (differentiate(f), f)
        return out

    @pytest.mark.parametrize("n", (1, 15, 1000, 3000, 7681))
    def test_same_bits_as_separate_evaluations(self, n):
        u = cell_points(n)
        for name, pair in self.pairs().items():
            want = [bits(eval_expr(e, u)) for e in pair]
            assert [bits(v) for v in eval_expr(pair, u)] == want, name
            assert [bits(v) for v in eval_expr(pair, u)] == want, name
        scalar = eval_expr(pair, complex(u[0]))
        assert all(isinstance(v, complex) for v in scalar)
        assert [bits(v) for v in scalar] == [
            bits(eval_expr(e, complex(u[0]))) for e in pair]

    def test_one_kernel_call_per_kind(self, monkeypatch):
        calls = []
        for name in ("sigma_w", "zeta_w"):
            kernel = getattr(kernels, name)

            def counted(u, lat, kernel=kernel, name=name):
                calls.append((name, np.size(u)))
                return kernel(u, lat)

            monkeypatch.setattr(kernels, name, counted)
        g, dh = self.pairs()["g, dh"]
        eval_expr((g, dh), cell_points(60))
        # g's four sigma shifts and dh's two zeta shifts, +-0.3i shared
        assert sorted(calls) == [("sigma_w", 240), ("zeta_w", 120)]

    def first_error(self, evaluate):
        with pytest.raises((PoleAt, DomainViolation)) as exc:
            evaluate()
        return type(exc.value), str(exc.value)

    @pytest.mark.parametrize("where", ("f", "fp", "both", "puncture"))
    def test_first_error_of_the_order(self, where):
        # f = zeta(u - 0.2) / sigma(u - 0.1) has poles at 0.1 and 0.2 (its
        # derivative's blocks too); in the fp case only the second
        # expression has poles: the stacked zeta call meets 0.35 first,
        # the walk the denominator's zero at 0.31; in the both case the
        # first expression's zeta block meets 0.2, the second's wp 1.35
        dom = torus(1j, (0.45,))
        f = parse_expr("zeta(u - 0.2) / sigma(u - 0.1)", dom)
        pairs = {
            "f": (f, differentiate(f)),
            "fp": (parse_expr("wp(u - 0.3)", dom),
                   parse_expr("zeta(u - 0.35) / (u - 0.31)", dom)),
            "both": (parse_expr("zeta(u - 0.2) + 1 / (u - 0.31)", dom),
                     parse_expr("wp(u - 0.35)", dom)),
            "puncture": (f, differentiate(f)),
        }
        u = {
            "f": np.array([0.3, 0.2, 0.1, 0.4], dtype=complex),
            "fp": np.array([0.35, 0.31, 0.4], dtype=complex),
            "both": np.array([1.35, 0.31, 0.2], dtype=complex),
            "puncture": np.array([0.3, 0.2, 0.45, 0.4], dtype=complex),
        }[where]
        pair = pairs[where]

        def separately():
            return [eval_expr(e, u) for e in pair]

        want = self.first_error(separately)
        assert want == {
            "f": (PoleAt, str(PoleAt(0.1 + 0j))),
            "fp": (PoleAt, str(PoleAt(0.31 + 0j))),
            # the zeta block names u, not its argument u - 0.2
            "both": (PoleAt, str(PoleAt(0.2 + 0j))),
            "puncture": (DomainViolation,
                         "u = (0.45+0j) is a declared puncture"),
        }[where]
        assert self.first_error(lambda: eval_expr(pair, u)) == want
        assert self.first_error(lambda: eval_expr(pair[::-1], u)) == (
            self.first_error(lambda: [eval_expr(e, u) for e in pair[::-1]]))

    def test_one_joint_plan_per_leading_expression(self):
        # a caller that pairs f with a new expression on every call, as
        # locate_divisor pairs a scene's form with its derivative, leaves
        # f holding the last partner only
        f = parse_expr("wp(u - 0.1)", TORUS)
        u = cell_points(15)
        partners = []
        for _ in range(3):
            fp = differentiate(f)
            assert bits(eval_expr((f, fp), u)[1]) == bits(eval_expr(fp, u))
            partners.append(weakref.ref(fp))
            del fp
        gc.collect()
        assert [p() is None for p in partners] == [True, True, False]

    def test_one_domain(self):
        other = torus(1j, (0.3,))
        with pytest.raises(DomainError):
            eval_expr((parse_expr("wp(u)", TORUS),
                       parse_expr("wp(u)", other)), 0.2)
        # an equal domain, not the same object, is one domain
        same = torus(1j)
        assert eval_expr((parse_expr("u", TORUS), parse_expr("u", same)),
                         0.2) == (0.2, 0.2)


class TestCalculus:
    @pytest.mark.parametrize(
        "text",
        ["exp(i*u)", "u^3 - u", "wp(u - 0.2)", "zeta(u)", "sigma(u - 0.1)",
         "wpp(u)", "1/(u - 0.5)"],
    )
    def test_derivative_matches_fd(self, text):
        e = parse_expr(text, TORUS)
        d = differentiate(e)
        u, h = 0.37 + 0.29j, 1e-6
        fd = (eval_expr(e, u + h) - eval_expr(e, u - h)) / (2 * h)
        scale = max(1.0, abs(fd))
        assert abs(eval_expr(d, u) - fd) < 2e-6 * scale

    def test_form_derivative(self):
        w = parse_expr("u^2 du", PLANE)
        dw = differentiate(w)
        assert isinstance(dw, FormExpr)
        assert abs(eval_expr(dw, 2.0) - 4.0) < 1e-13

    def test_log_derivative_exp(self):
        g = parse_expr("exp(i*u)", PLANE)
        w = log_derivative(g)
        assert abs(eval_expr(w, 0.3) - 1j) < 1e-13

    def test_log_derivative_sigma_quotient(self):
        g = parse_expr("sigma(u - 0.2)/sigma(u + 0.2)", TORUS)
        w = log_derivative(g)
        lat = TORUS.lattice
        u = 0.4 + 0.3j
        expected = zeta_w(u - 0.2, lat) - zeta_w(u + 0.2, lat)
        assert abs(eval_expr(w, u) - expected) < 1e-11


class TestPullback:
    def test_function_pullback(self):
        inv = Involution(0.3, TORUS)
        e = parse_expr("wp(u - 0.1)", TORUS)
        pb = pullback(e, inv)
        u = 0.45 + 0.27j
        assert abs(eval_expr(pb, u) - eval_expr(e, 0.3 - u)) < 1e-12

    def test_form_pullback_jacobian(self):
        inv = Involution(0.0, PLANE)
        w = parse_expr("u^2 du", PLANE)
        pb = pullback(w, inv)
        # I*(u^2 du) = (-u)^2 d(-u) = -u^2 du
        assert abs(eval_expr(pb, 2.0) + 4.0) < 1e-13

    def test_odd_form_detection(self):
        # dh = -i (zeta(u - a) - zeta(u + a)) du is odd under u -> -u
        dom = torus(1j, (0.3j, -0.3j))
        w = parse_expr("(0-i)*(zeta(u - 0.3*i) - zeta(u + 0.3*i)) du", dom)
        inv = Involution(0.0, dom)
        pb = pullback(w, inv)
        u = 0.38 + 0.21j
        assert abs(eval_expr(pb, u) + eval_expr(w, u)) < 1e-11


class TestInvolution:
    def test_fixed_points_on_torus(self):
        inv = Involution(0.4, TORUS)
        assert len(inv.fixed_points) == 4
        for p in inv.fixed_points:
            assert TORUS.same_point(inv.apply(p), p, 1e-12)

    def test_fixed_point_on_plane(self):
        inv = Involution(1 + 1j, PLANE)
        assert inv.fixed_points == (0.5 + 0.5j,)

    def test_p0_must_be_fixed(self):
        with pytest.raises(ValueError):
            Involution(0.0, TORUS, p0=0.3 + 0.1j)
