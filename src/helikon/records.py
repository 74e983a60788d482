"""Record classes built without generated code: `record`, `field`, `replace`.

The part of `dataclasses` that helikon's classes use, with the same
behaviour there.  `dataclasses` writes each class's methods as source text
and compiles it at every start-up, a quarter to half a millisecond per
class; here every method is a closure over the fields.

A record's fields are the names annotated in its own class body, in order;
a class attribute is the field's default, or a `field(...)`.  The class
gets:

- `__init__(*args, **kwargs)`, taking the `init` fields by position or by
  name, defaults and `default_factory` filling in the ones left out (only
  a call that gives them all, by position or by name, skips `_bind`); the
  `init=False` fields with a `default_factory` are set after the others, and
  then `__post_init__()` runs if the class has one (looked up on the
  instance at each call, so a wrapped `__post_init__` is the one called);
- `__repr__`, `ClassName(name=value!r, ...)` over the fields with `repr`;
- with `eq` (the default), `__eq__`: same class and equal tuples of the
  fields with `compare`; without it, equality and hash stay by identity;
- with `frozen`, assignment and deletion raise FrozenInstanceError (an
  AttributeError), and `__hash__` hashes the compared fields' tuple; a
  record with `eq` that is not frozen is unhashable.

Not covered: inheritance of fields from a base record, keyword-only
fields, ordering, slots, `__match_args__` and ClassVar annotations.
"""

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Field:
    __slots__ = ("name", "default", "default_factory", "init", "repr",
                 "compare")

    def __init__(self, default, default_factory, init, repr, compare):
        self.name = None  # set by record
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, default_factory=_MISSING, init=True,
          repr=True, compare=True):
    """A field's options, as the class attribute of an annotated name."""
    return Field(default, default_factory, init, repr, compare)


def record(cls=None, /, *, frozen=False, eq=True):
    """Class decorator: `@record` or `@record(frozen=..., eq=...)`."""
    def wrap(cls):
        _build(cls, frozen, eq)
        return cls
    return wrap if cls is None else wrap(cls)


def replace(obj, **changes):
    """A new record of obj's class: obj's init fields, with changes."""
    for f in type(obj).__record_fields__:
        if f.init:
            if f.name not in changes:
                changes[f.name] = getattr(obj, f.name)
        elif f.name in changes:
            raise ValueError(f"field {f.name!r} is not an __init__ argument")
    return type(obj)(**changes)


def _build(cls, frozen, eq):
    fields = []
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, _MISSING)
        if not isinstance(f, Field):
            f = field(default=f)
        f.name = name
        # as in dataclasses: the class attribute is the default, if any
        if f.default is not _MISSING:
            setattr(cls, name, f.default)
        elif name in cls.__dict__:
            delattr(cls, name)
        fields.append(f)
    cls.__record_fields__ = tuple(fields)
    # (name, default, default_factory) of every init field, in order
    params = tuple((f.name, f.default, f.default_factory)
                   for f in fields if f.init)
    names = tuple(name for name, _, _ in params)
    keys = frozenset(names)
    made = tuple((f.name, f.default_factory) for f in fields
                 if not f.init and f.default_factory is not _MISSING)
    post = hasattr(cls, "__post_init__")
    # past a frozen __setattr__; unlike writing to self.__dict__, this keeps
    # the attributes inline, where reading them is fastest
    put = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs and not args and kwargs.keys() == keys:
            args = map(kwargs.__getitem__, names)  # every init field by name
        elif kwargs or len(args) != len(names):
            args = _bind(cls.__name__, params, args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        for name, factory in made:
            put(self, name, factory())
        if post:
            self.__post_init__()

    shown = tuple(f.name for f in fields if f.repr)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({inner})"

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    if eq:
        compared = tuple(f.name for f in fields if f.compare)

        def key(obj):
            return tuple([getattr(obj, name) for name in compared])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        def __setattr__(self, name, value):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise FrozenInstanceError(f"cannot delete field {name!r}")

        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__


def _bind(owner, params, args, kwargs):
    """The values of the init fields params from a call's args and kwargs,
    as a list."""
    if len(args) > len(params):
        raise TypeError(f"{owner}() takes {len(params)} positional arguments"
                        f" but {len(args)} were given")
    values = list(args)
    for name, default, factory in params[len(args):]:
        value = kwargs.pop(name, default)
        if value is _MISSING:
            if factory is _MISSING:
                raise TypeError(f"{owner}() missing required argument"
                                f" {name!r}")
            value = factory()
        values.append(value)
    if kwargs:
        raise TypeError(f"{owner}() got an unexpected or repeated keyword"
                        f" argument {next(iter(kwargs))!r}")
    return values
