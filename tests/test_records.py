"""Record classes against stdlib dataclasses, and a start-up that builds no code.

Each flag combination that helikon's records use is declared twice from
one body, once with `dataclasses` (the oracle) and once with
`helikon.records`, and the two must agree on construction, repr, equality,
hashing, frozen assignment and replace.  The last tests check the mesh's
literal Gauss-Legendre table against numpy's, and that importing helikon in
a fresh interpreter loads neither `dataclasses` nor `numpy.polynomial`.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import helikon
from helikon import mesh, records


def declare(decorate, field):
    """One class per flag combination, built with decorate and field."""

    @decorate
    class Plain:  # Divisor, Scene, the reports
        label: str
        value: complex = 0j
        items: list = field(default_factory=list)

    @decorate(frozen=True)
    class Pair:  # the expression nodes Add, Mul, ...
        a: object
        b: object

    @decorate(frozen=True)
    class Other:  # a second node class with the same fields
        a: object
        b: object

    @decorate(frozen=True)
    class Empty:  # Var
        pass

    @decorate(frozen=True)
    class Derived:  # Lattice, with WeierstrassData's normalising post-init
        tau: complex
        tol: float = 1e-14
        double: complex = field(init=False)
        cache: tuple = field(init=False, compare=False, repr=False)

        def __post_init__(self):
            object.__setattr__(self, "tau", complex(self.tau))
            object.__setattr__(self, "double", 2 * self.tau)
            object.__setattr__(self, "cache", (id(self),))

    @decorate(eq=False)
    class Identity:  # SurfaceMesh
        xs: list
        label: str = ""
        memo: dict = field(default_factory=dict, init=False, repr=False)

    return {cls.__name__: cls for cls in
            (Plain, Pair, Other, Empty, Derived, Identity)}


ORACLE = declare(dataclasses.dataclass, dataclasses.field)
RECORD = declare(records.record, records.field)

# (class name, args, kwargs) of constructions both must accept alike
CALLS = [
    ("Plain", ("a",), {}),
    ("Plain", ("a", 1j), {}),
    ("Plain", (), {"label": "b", "items": [1, 2]}),
    ("Plain", ("a",), {"items": [3]}),
    ("Pair", (1, 2), {}),
    ("Pair", (1,), {"b": (2, 3)}),
    ("Other", (1, 2), {}),
    ("Empty", (), {}),
    ("Derived", (1j,), {}),
    ("Derived", (), {"tau": 2, "tol": 1e-8}),
    ("Identity", ([1.5],), {"label": "m"}),
    # every init field by name, in and out of order, and all but one
    ("Pair", (), {"a": 1, "b": 2}),
    ("Pair", (), {"b": 2, "a": 1}),
    ("Derived", (), {"tau": 2}),
    ("Identity", (), {"label": "m", "xs": [2.5]}),
]


def both(name, args, kwargs):
    return (ORACLE[name](*args, **kwargs), RECORD[name](*args, **kwargs))


def outcome(fn):
    """fn()'s value, or its exception's class name."""
    try:
        return fn()
    except Exception as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name, args, kwargs", CALLS)
def test_repr_matches_dataclasses(name, args, kwargs):
    want, got = both(name, args, kwargs)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("left", CALLS)
def test_equality_matches_dataclasses(left):
    want_a, got_a = both(*left)
    for right in CALLS:
        want_b, got_b = both(*right)
        assert (got_a == got_b) == (want_a == want_b)
        assert (got_a != got_b) == (want_a != want_b)


@pytest.mark.parametrize("name, args, kwargs", CALLS)
def test_hash_matches_dataclasses(name, args, kwargs):
    # frozen: the compared fields' tuple; eq and mutable: unhashable;
    # eq=False: identity
    want, got = both(name, args, kwargs)
    if name == "Identity":
        assert hash(got) == object.__hash__(got)
    else:
        assert outcome(lambda: hash(got)) == outcome(lambda: hash(want))


def test_same_fields_of_another_class_differ():
    # unlike NamedTuples, Add(a, b) != Mul(a, b)
    for table in (ORACLE, RECORD):
        assert table["Pair"](1, 2) == table["Pair"](1, 2)
        assert table["Pair"](1, 2) != table["Other"](1, 2)
        assert table["Pair"](1, 2) != (1, 2)
        assert table["Empty"]() == table["Empty"]()


def test_eq_false_is_identity():
    for table in (ORACLE, RECORD):
        a = table["Identity"]([1.0])
        assert a == a and a != table["Identity"]([1.0])
        assert hash(a) == object.__hash__(a)


def test_compare_false_field_is_left_out():
    for table in (ORACLE, RECORD):
        a, b = table["Derived"](1j), table["Derived"](1j)
        assert a.cache != b.cache
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name, args, kwargs",
                         [c for c in CALLS if c[0] in ("Pair", "Derived")])
def test_frozen_assignment_raises_attribute_error(name, args, kwargs):
    for obj in both(name, args, kwargs):
        with pytest.raises(AttributeError):
            obj.tau = 3
        with pytest.raises(AttributeError):
            del obj.tol
    _, got = both(name, args, kwargs)
    with pytest.raises(records.FrozenInstanceError):
        got.a = 1


def test_mutable_records_take_assignment():
    for table in (ORACLE, RECORD):
        p = table["Plain"]("a")
        p.value = 2.0
        assert p.value == 2.0


def test_default_factory_makes_one_value_per_instance():
    for table in (ORACLE, RECORD):
        a, b = table["Plain"]("a"), table["Plain"]("a")
        a.items.append(1)
        assert b.items == []
        m, n = table["Identity"]([]), table["Identity"]([])
        assert m.memo == {} and m.memo is not n.memo


def test_init_false_fields_come_from_post_init():
    want, got = both("Derived", (0.5,), {})
    assert got.tau == want.tau == 0.5 + 0j
    assert got.double == want.double == 1 + 0j
    assert "cache" not in repr(got)


def test_post_init_is_looked_up_at_each_call():
    # the benchmark tracer wraps Lattice.__post_init__ on the class
    calls = []
    for table in (ORACLE, RECORD):
        cls = table["Derived"]
        original = cls.__dict__["__post_init__"]

        def wrapped(self, original=original):
            calls.append(type(self))
            original(self)

        cls.__post_init__ = wrapped
        try:
            cls(1j)
        finally:
            cls.__post_init__ = original
    assert calls == [ORACLE["Derived"], RECORD["Derived"]]


def test_class_attributes_match_dataclasses():
    for name in ("Plain", "Derived", "Identity"):
        for attr in ("label", "value", "items", "tol", "double", "memo"):
            assert (outcome(lambda: getattr(RECORD[name], attr))
                    == outcome(lambda: getattr(ORACLE[name], attr)))


# (class name, args, kwargs, the record's message) of bad calls
EXTRA = "got an unexpected or repeated keyword argument"
BAD_CALLS = [
    ("Pair", (1, 2, 3), {}, "takes 2 positional arguments but 3 were given"),
    ("Pair", (1,), {}, "missing required argument 'b'"),
    ("Pair", (1, 2), {"c": 3}, f"{EXTRA} 'c'"),
    ("Pair", (1,), {"a": 2}, "missing required argument 'b'"),
    ("Derived", (1j,), {"double": 2j}, f"{EXTRA} 'double'"),
    ("Identity", ([],), {"memo": {}}, f"{EXTRA} 'memo'"),
    # keyword calls: a name missing, an extra one, a repeated one
    ("Pair", (), {"b": 2}, "missing required argument 'a'"),
    ("Pair", (), {"a": 1, "b": 2, "c": 3}, f"{EXTRA} 'c'"),
    ("Pair", (1,), {"a": 1, "b": 2}, f"{EXTRA} 'a'"),
    ("Empty", (), {"a": 1}, f"{EXTRA} 'a'"),
    ("Derived", (), {"tau": 1j, "double": 2j}, f"{EXTRA} 'double'"),
]


# ids as if parametrized by (name, args, kwargs) alone
@pytest.mark.parametrize(
    "name, args, kwargs, message", BAD_CALLS,
    ids=[f"{call[0]}-args{k}-kwargs{k}" for k, call in enumerate(BAD_CALLS)],
)
def test_bad_arguments_raise_type_error(name, args, kwargs, message):
    with pytest.raises(TypeError):
        ORACLE[name](*args, **kwargs)
    with pytest.raises(TypeError) as raised:
        RECORD[name](*args, **kwargs)
    assert str(raised.value) == f"{name}() {message}"


def test_keyword_call_of_every_init_field_binds_nothing(monkeypatch):
    # the fast path; any other keyword call goes through _bind
    def refuse(*args):
        raise AssertionError("bound in Python")

    monkeypatch.setattr(records, "_bind", refuse)
    got = RECORD["Pair"](b=2, a=1)
    assert (got.a, got.b) == (1, 2)
    got = RECORD["Derived"](tol=0.5, tau=1)
    assert (got.tau, got.tol, got.double) == (1 + 0j, 0.5, 2 + 0j)
    with pytest.raises(AssertionError):
        RECORD["Derived"](tau=1)


@pytest.mark.parametrize("name, args, kwargs, changes", [
    ("Plain", ("a", 1j), {}, {"value": 2j}),
    ("Pair", (1, 2), {}, {"b": 5}),
    ("Derived", (1j,), {}, {"tau": 2j}),
    ("Derived", (1j,), {}, {}),
    ("Identity", ([1.0],), {"label": "m"}, {"xs": [2.0]}),
])
def test_replace_matches_dataclasses(name, args, kwargs, changes):
    want, got = both(name, args, kwargs)
    new_want = dataclasses.replace(want, **changes)
    new_got = records.replace(got, **changes)
    assert repr(new_got) == repr(new_want)
    assert new_got is not got and type(new_got) is type(got)


def test_replace_refuses_init_false_fields():
    for replace, table in ((dataclasses.replace, ORACLE),
                           (records.replace, RECORD)):
        with pytest.raises(ValueError):
            replace(table["Derived"](1j), double=3j)


def test_gauss_legendre_table_is_numpys_to_the_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for ours, theirs in ((mesh._GL_T, nodes), (mesh._GL_W, weights)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


FRESH_IMPORT = """
import json, sys
import argparse, numpy
before = set(sys.modules)
for name in json.loads(sys.argv[1]):
    __import__(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_generates_no_code():
    # dataclasses compiles each record's methods from generated source,
    # and numpy.polynomial was once loaded for one 8-point table
    package = os.path.dirname(helikon.__file__)
    names = ["helikon"] + sorted(
        f"helikon.{f[:-3]}" for f in os.listdir(package)
        if f.endswith(".py") and f != "__init__.py"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_IMPORT, json.dumps(names)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    added = json.loads(out.stdout)
    assert set(names) <= set(added)
    assert "dataclasses" not in added
    assert [m for m in added if m.startswith("numpy.polynomial")] == []
