"""Tests for angle-token parsing: the float fast path against ``eval``."""

import math
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polymod.errors import OutOfRange
from polymod.jsonio import _eval_angle, parse_theta

_ANGLE_CHARS = re.compile(r"^[0-9eE@+\-*/().]*$")


def eval_angle_by_eval(expr: str) -> float:
    """The angle parser before the float fast path: every token through eval."""
    e = expr.strip().lower().replace(" ", "")
    if not e:
        raise OutOfRange("empty angle token")
    e = e.replace("pi", "@")
    if not _ANGLE_CHARS.match(e):
        raise OutOfRange(f"angle token {expr!r} contains unsupported characters")
    if "**" in e or "//" in e:
        raise OutOfRange(f"angle token {expr!r} uses an unsupported operator")
    e = re.sub(r"(?<=[0-9.)])@", "*@", e)
    e = re.sub(r"@(?=[0-9.(])", "@*", e)
    try:
        value = eval(e.replace("@", "pi"), {"__builtins__": {}}, {"pi": math.pi})
        value = float(value)
    except Exception as exc:
        raise OutOfRange(f"cannot parse angle token {expr!r}: {exc}") from exc
    if not math.isfinite(value):
        raise OutOfRange(f"angle token {expr!r} is not finite")
    return value


def outcome(parse, token):
    """The float's bits (so -0.0 differs from 0.0), or the error and message."""
    try:
        return struct.pack("<d", parse(token))
    except OutOfRange as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="0123456789.eE+-", max_size=12))
@example("01")
@example("-007")
@example("00")
@example("1e05")
@example("-0")
@example("-0.0")
@example(".5")
@example("1.")
@example("1e400")
@example("-1e400")
@example("1" * 400)
@example(" 2.5 ")
@example("٣.٥")
def test_float_tokens_parse_as_eval_parses_them(token):
    assert outcome(_eval_angle, token) == outcome(eval_angle_by_eval, token)


@pytest.mark.parametrize("spec", ["2@", "@", "2@/5", "5x@", "pi@"])
def test_at_sign_is_rejected_and_not_read_as_pi(spec):
    with pytest.raises(OutOfRange, match="contains unsupported characters"):
        parse_theta(spec)
