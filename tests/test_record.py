"""polymod's record classes behave as the frozen dataclasses they replace.

Each record is compared with a dataclass twin built here from its own
annotations, defaults, ``__post_init__`` and ordering flag: init by
position, keyword and defaults, the post-init checks, eq, hash, repr,
ordering and the frozen-assignment error.  The tests' ``replace`` helper
(``records.py``), which plants faults in built records, is compared with
``dataclasses.replace``.
"""

import dataclasses
import math
import operator
import sys

import pytest

from polymod import (
    HexahedronShape,
    OutOfRange,
    PentagonShape,
    UpperHalfPoint,
    build_complex,
    build_models,
    complete_triangle,
    equal_weight,
    pentagon_side_lengths,
    psi5,
    psi6,
    validate_weight,
)
from polymod.combinatorics import DegenerateConfig, Label
from polymod.planar import complete_triangles, label_angles

from records import replace

THETA6 = validate_weight((0.9, 0.9, 0.9, 1.2, 1.2, 2.0 * math.pi - 5.1))


def samples() -> dict:
    """Two instances of each of the 13 record classes, as polymod builds them."""
    complex5 = build_complex(5)
    stack = build_models([equal_weight(6), THETA6], [(1, 2, 3, 4, 5, 6)] * 2)
    shapes5 = [psi5(validate_weight(t)) for t in ((1.1, 1.3, 0.9, 1.5, 2 * math.pi - 4.8),
                                                  (1.2,) * 4 + (2 * math.pi - 4.8,))]
    triangles = [complete_triangles(label_angles([t], [w])[1])
                 for t, w in ((equal_weight(5), (1, 2, 3, 4, 5)), (THETA6, (2, 1, 3, 4, 5, 6)))]
    return {
        type(THETA6): [equal_weight(5), THETA6],
        Label: list(complex5.cells[:2]),
        DegenerateConfig: [complex5.pairings[0].config, complex5.pairings[1].config],
        type(complex5.pairings[0]): list(complex5.pairings[:2]),
        type(complex5): [complex5, build_complex(6)],
        UpperHalfPoint: [UpperHalfPoint(0.5 + 1j), UpperHalfPoint(-2 + 0.25j)],
        type(stack.model(0)): [stack.model(0), stack.model(1)],
        type(stack): [stack, build_models([THETA6], [(2, 1, 3, 4, 5, 6)])],
        PentagonShape: shapes5,
        HexahedronShape: [psi6(THETA6), psi6(equal_weight(6))],
        type(pentagon_side_lengths(shapes5[0])): [pentagon_side_lengths(s) for s in shapes5],
        type(triangles[0]): triangles,
        type(complete_triangle(THETA6, (1, 2, 3, 4, 5, 6))): [
            complete_triangle(equal_weight(5), (1, 2, 3, 4, 5)),
            complete_triangle(THETA6, (1, 2, 3, 4, 5, 6)),
        ],
    }


SAMPLES = samples()
ORDERED = {Label, DegenerateConfig}

#: Field values each class's __post_init__ rejects, with the error's class.
INVALID = {
    UpperHalfPoint: ({"w": 1 + 0j}, OutOfRange),
    PentagonShape: ({"P": 0.5}, OutOfRange),
    HexahedronShape: ({"R": -1.0}, OutOfRange),
}


def twin(cls):
    """The frozen dataclass with ``cls``'s fields, defaults and post-init."""
    names = cls.__match_args__
    fields = [
        (f, cls.__annotations__[f], dataclasses.field(default=cls.__dict__[f]))
        if f in cls.__dict__ else (f, cls.__annotations__[f])
        for f in names
    ]
    namespace = {k: cls.__dict__[k] for k in ("__post_init__",) if k in cls.__dict__}
    return dataclasses.make_dataclass(
        cls.__name__, fields, namespace=namespace, frozen=True, order=cls in ORDERED
    )


def outcome(fn, *args, **kwargs):
    """``("ok", repr of the value)`` or the class of the exception raised."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:  # the exception class is the outcome compared
        return type(exc)


def values(obj) -> tuple:
    return tuple(getattr(obj, f) for f in type(obj).__match_args__)


def test_all_thirteen_classes_are_records_of_their_annotated_fields():
    assert len(SAMPLES) == 13
    for cls, objs in SAMPLES.items():
        assert all(type(obj) is cls for obj in objs)
        assert not dataclasses.is_dataclass(cls)
        assert cls.__match_args__ == tuple(cls.__annotations__)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def case(request):
    cls = request.param
    return cls, twin(cls), SAMPLES[cls]


def test_init_by_position_keyword_and_default_as_the_twin(case):
    cls, Twin, objs = case
    for obj in objs:
        args = values(obj)
        kwargs = dict(zip(cls.__match_args__, args))
        mixed = cls(args[0], **{f: kwargs[f] for f in cls.__match_args__[1:]})
        for rec in (cls(*args), cls(**kwargs), mixed):
            assert repr(rec) == repr(Twin(*args))
            assert list(vars(rec)) == list(vars(Twin(*args)))
            assert all(x is y for x, y in zip(values(rec), args))
    defaulted = [f for f in cls.__match_args__ if f in cls.__dict__]
    required = values(objs[0])[: len(cls.__match_args__) - len(defaulted)]
    assert outcome(cls, *required) == outcome(Twin, *required)
    first = values(objs[0])
    bad_calls = [  # too many, unknown and repeated arguments, and a missing one
        ((*first, 0), {}),
        (first, {"nonfield": 1}),
        (first, {cls.__match_args__[0]: first[0]}),
    ] + ([(required[:-1], {})] if required else [])
    for args, kwargs in bad_calls:
        assert outcome(cls, *args, **kwargs) is TypeError
        assert outcome(Twin, *args, **kwargs) is TypeError


def test_post_init_checks_as_the_twin(case):
    cls, Twin, objs = case
    if cls not in INVALID:
        assert "__post_init__" not in cls.__dict__
        return
    changes, error = INVALID[cls]
    kwargs = {**dict(zip(cls.__match_args__, values(objs[0]))), **changes}
    assert outcome(cls, **kwargs) is error
    assert outcome(Twin, **kwargs) is error
    with pytest.raises(error) as got:
        cls(**kwargs)
    with pytest.raises(error) as want:
        Twin(**kwargs)
    assert str(got.value) == str(want.value)


def test_eq_hash_and_repr_as_the_twin(case):
    cls, Twin, objs = case
    a, b = objs
    records = [cls(*values(a)), a, b]
    twins = [Twin(*values(a)), Twin(*values(a)), Twin(*values(b))]
    for (r1, t1) in zip(records, twins):
        assert repr(r1) == repr(t1)
        assert outcome(hash, r1) == outcome(hash, t1)
        for r2, t2 in zip(records, twins):
            assert outcome(lambda: r1 == r2) == outcome(lambda: t1 == t2)
            assert outcome(lambda: r1 != r2) == outcome(lambda: t1 != t2)
    assert (a == twins[1]) is False and (a != twins[1]) is True
    assert (a == values(a)) is False


def test_hash_is_the_hash_of_the_field_tuple(case):
    """Set and dict order of hashable records stays as the dataclass gave it."""
    cls, Twin, objs = case
    for obj in objs:
        got, want = outcome(hash, obj), outcome(hash, Twin(*values(obj)))
        assert got == want
        if got is not TypeError:
            assert hash(obj) == hash(values(obj))


def test_ordering_as_the_twin(case):
    cls, Twin, objs = case
    pairs = [(x, y) for x in objs for y in objs]
    for x, y in pairs:
        tx, ty = Twin(*values(x)), Twin(*values(y))
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert outcome(lambda: getattr(x, op)(y)) == outcome(lambda: getattr(tx, op)(ty))
        assert outcome(lambda: x < y) == outcome(lambda: tx < ty)
    if cls in ORDERED:
        twins = [Twin(*values(obj)) for obj in objs]
        assert [values(r) for r in sorted(objs[::-1])] == [values(t) for t in sorted(twins[::-1])]
        assert outcome(lambda: objs[0] < Twin(*values(objs[0]))) is TypeError


def test_replace_runs_post_init_again_as_the_twin(case):
    cls, Twin, objs = case
    a, b = objs
    field = cls.__match_args__[-1]
    got = replace(a, **{field: getattr(b, field)})
    want = dataclasses.replace(Twin(*values(a)), **{field: getattr(b, field)})
    assert type(got) is cls and repr(got) == repr(want)
    assert repr(replace(a)) == repr(a) and replace(a) is not a
    assert outcome(replace, a, nonfield=1) is TypeError
    if cls in INVALID:
        changes, error = INVALID[cls]
        assert outcome(replace, a, **changes) is error
        assert outcome(dataclasses.replace, Twin(*values(a)), **changes) is error


def test_assignment_raises_frozen_instance_error_as_the_twin(case):
    cls, Twin, objs = case
    obj, other = objs[0], Twin(*values(objs[0]))
    before = values(obj)
    for name in (cls.__match_args__[0], "not_a_field"):
        for target in (obj, other):
            with pytest.raises(dataclasses.FrozenInstanceError) as assign:
                setattr(target, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError) as delete:
                delattr(target, name)
            assert str(assign.value) == f"cannot assign to field {name!r}"
            assert str(delete.value) == f"cannot delete field {name!r}"
    assert all(x is y for x, y in zip(values(obj), before))


def test_cached_properties_still_fill_on_first_read():
    stack = build_models([THETA6], [(1, 2, 3, 4, 5, 6)])
    assert "_axis" not in vars(stack)
    intercepts = stack.intercepts
    assert "_axis" in vars(stack) and stack.intercepts is intercepts


@pytest.mark.parametrize("cls", [Label, DegenerateConfig, UpperHalfPoint], ids=lambda c: c.__name__)
def test_single_field_records_compare_and_hash_in_one_frame(cls):
    """A single field's 1-tuple is built inline: each comparison and the
    hash is one Python call, and the values stay the field tuple's."""
    a, b = samples()[cls]
    ordering = [operator.lt, operator.le, operator.gt, operator.ge]
    ops = [operator.eq, operator.ne] + (ordering if cls in ORDERED else [])
    checks = [(op, (a, b), op(values(a), values(b))) for op in ops] + [(hash, (a,), hash(values(a)))]
    for op, args, want in checks:
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            got = op(*args)
        finally:
            sys.setprofile(None)
        assert got == want
        assert len(calls) == 1, (op, calls)
