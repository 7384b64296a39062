"""Frozen record classes built without generated source.

:func:`record` gives a class with annotated fields what a frozen dataclass
would: an ``__init__`` taking the fields by position or keyword, with
class-level defaults and a ``__post_init__`` hook; the same ``repr``;
field-wise ``==`` and ``hash``; ordering when asked; and assignment that
raises ``dataclasses.FrozenInstanceError``.  The methods are closures over
the tuple of field names, so defining a record compiles no source and
imports neither ``dataclasses`` nor ``inspect``.  Instances keep a
``__dict__``, so ``functools.cached_property`` works on them.
"""

import operator


def record(cls=None, *, order: bool = False):
    """Make ``cls`` a frozen record; use as ``@record`` or ``@record(order=True)``."""
    if cls is None:
        return lambda c: record(c, order=order)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    fields = frozenset(names)
    defaults = {f: cls.__dict__[f] for f in names if f in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    get = operator.attrgetter(*names)
    single = len(names) == 1  # attrgetter of one name gives the value, not a 1-tuple

    def bind(args: tuple, kwargs: dict) -> dict:
        """The fields of an init call, in field order, or TypeError."""
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (len(args) > len(names) or values.keys() != fields
                or not kwargs.keys().isdisjoint(names[: len(args)])):
            raise TypeError(
                f"{cls.__qualname__}() takes the fields {names}, "
                f"got {len(args)} positional and the keywords {list(kwargs)}"
            )
        return {f: values[f] for f in names}

    def __init__(self, *args, **kwargs):
        if not args and kwargs.keys() == fields:  # every field by keyword
            self.__dict__.update(kwargs)
        elif len(args) == len(names) and not kwargs:  # every field by position
            self.__dict__.update(zip(names, args))
        else:
            self.__dict__.update(bind(args, kwargs))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        values = (get(self),) if single else get(self)
        body = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
        return f"{self.__class__.__qualname__}({body})"

    # one Python frame each; a single field's 1-tuple keeps hash(r) == hash(fields)
    def compare(op):
        def method(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return op((get(self),), (get(other),)) if single else op(get(self), get(other))

        return method

    def __hash__(self):
        return hash((get(self),) if single else get(self))

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__repr__": __repr__, "__setattr__": __setattr__,
               "__delattr__": __delattr__, "__eq__": compare(operator.eq),
               "__hash__": __hash__}
    if order:
        for op in ("lt", "le", "gt", "ge"):
            methods[f"__{op}__"] = compare(getattr(operator, op))
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__match_args__ = names
    return cls


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError  # loaded only on this error path

    return FrozenInstanceError(message)
