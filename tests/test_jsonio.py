"""Tests for angle-token parsing: the float fast path and the syntax-tree
check against the ``eval`` path they replaced; and string quoting against
``json``, which only this test imports."""

import json
import math
import re
import struct
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polymod.errors import OutOfRange
from polymod import jsonio
from polymod.jsonio import MAX_EXPRESSION, _eval_angle, dumps_canonical, parse_theta

_ANGLE_CHARS = re.compile(r"^[0-9eE@+\-*/().]*$")


def eval_angle_by_eval(expr: str) -> float:
    """The angle parser before the float fast path and the syntax-tree
    check: every token through eval, behind string-level guards."""
    e = expr.strip().lower().replace(" ", "")
    if not e:
        raise OutOfRange("empty angle token")
    if len(e) > MAX_EXPRESSION:
        raise OutOfRange(f"angle token of {len(e)} characters exceeds {MAX_EXPRESSION}")
    # ``@`` stands for pi below, so it is refused before pi is rewritten to it
    if "@" in e or not _ANGLE_CHARS.match(e := e.replace("pi", "@")):
        raise OutOfRange(f"angle token {expr!r} contains unsupported characters")
    if "**" in e or "//" in e:
        raise OutOfRange(f"angle token {expr!r} uses an unsupported operator")
    e = re.sub(r"(?<=[0-9.)])@", "*@", e)
    e = re.sub(r"@(?=[0-9.(])", "@*", e)
    try:
        # compiling a token such as ``2(3)`` warns that an int is not callable
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)
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


def theta_outcome(spec):
    """:func:`outcome` of ``parse_theta(spec)``: every value's bits, or the
    error, its message and the class of the error it was raised from."""
    try:
        return [struct.pack("<d", value) for value in parse_theta(spec)]
    except OutOfRange as exc:
        return type(exc).__name__, str(exc), type(exc.__cause__)


def listed_change(old, new) -> bool:
    """The two messages the syntax-tree check changes.  A token with ``**``
    or ``//`` that Python cannot parse gets Python's syntax error, not
    "unsupported operator"; and a tree that is not arithmetic (a call or a
    tuple) is refused as "unsupported operator" before it runs, not by the
    error it raised as it ran."""
    unsupported = "uses an unsupported operator"
    if old[1].endswith(unsupported) and old[2] is type(None):
        return new[2] is SyntaxError
    return new[1].endswith(unsupported) and new[2] is type(None) and old[2] not in (SyntaxError, type(None))


#: The alphabet of angle tokens: digits, points, exponents, signs, the four
#: operators and the two the tree check refuses, parentheses, both
#: spellings of pi, a repetition prefix, spaces, and characters no angle
#: token takes: ``_``, ``@`` and an Arabic-Indic digit.
TOKEN_PARTS = [*"0123456789.eE+-*/() _@", "**", "//", "pi", "\u03c0", "x", "5x", "\u0663", "2(3)", "..."]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PARTS), min_size=1, max_size=12).map("".join))
@example("-" * 999 + "1")
@example("(" * 199 + "1" + ")" * 199)
@example("9007199254740993-1")
@example("1" + "*1" * 500)
@example("2(3)")
@example("0..e")
@example("()")
@example("2//")
@example("pi@")
@example("5x2pi/5")
def test_tokens_parse_as_the_eval_path_parses_them(spec):
    """parse_theta accepts and refuses what the ``eval`` path did, with the
    same value bits, and the same messages but for :func:`listed_change`.
    pytest makes a warning an error, so no token warns either."""
    new = theta_outcome(spec)
    with mock.patch.object(jsonio, "_eval_angle", eval_angle_by_eval):
        old = theta_outcome(spec)
    if isinstance(old, list) or isinstance(new, list):
        assert new == old
    elif new[:2] != old[:2]:
        assert listed_change(old, new), (old, new)


#: Characters json escapes or passes through: C0 controls, DEL, the quote and
#: the backslash, the first non-ASCII code points, a lone surrogate of each
#: kind (argv decoding gives ``\udcff`` for byte 0xff), and astral ones.
QUOTED_PARTS = ["\x00", "\x1f", " ", "~", "\x7f", '"', "\\", "\b\t\n\f\r", "\x80", "\xff",
                "\u0100", "\ud800", "\udbff", "\udc00", "\udcff", "\uffff", "\U00010000",
                "\U0001f600", "\U0010ffff", "u00", "\\u0080"]


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(QUOTED_PARTS), max_size=12).map("".join)))
@example("\x80")  # expanded before the table was applied, its backslash was doubled
@example("\\\x80")
@example("\udcff")
@example("\U0001f600\x7f")
def test_strings_quote_as_json_quotes_them(text):
    """Values and keys alike are ``json.dumps(text, ensure_ascii=True)``."""
    want = json.dumps(text, ensure_ascii=True)
    assert dumps_canonical(text) == want
    assert dumps_canonical({text: text, "~": [text]}) == json.dumps(
        {text: text, "~": [text]}, ensure_ascii=True, sort_keys=True, separators=(",", ":")
    )
