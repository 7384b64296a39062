"""Canonical serialization and input-token parsing.

JSON documents are rendered with sorted keys, compact separators, and every
float at 17 significant digits, so equal data always produces identical
bytes.  Angle tokens accept raw radians, expressions in ``pi`` such as
``2pi/5`` or ``2/5*2pi``, and a repetition prefix ``5x2pi/5``; the unicode
spellings ``×`` and ``π`` are accepted as synonyms.  A repetition count
is at most ``MAX_REPEAT``, and an expression at most ``MAX_EXPRESSION``
characters.
``SUITES`` names the accepted ``--suite`` tokens, so the command line can
check them without loading the verification engine.

numpy scalars and arrays serialize as they always have, but this module
never imports numpy: until numpy is loaded no value can be of its types,
so the type checks read numpy from ``sys.modules``.  Nor does it import
``json``: strings are quoted by a translation table that gives the bytes
of ``json.dumps(s, ensure_ascii=True)``.  Its patterns compile on first
use, since ``invert`` and ``verify`` parse no angle token.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Sequence

from .errors import OutOfRange

# A signed float literal with a point or an exponent.  For these float()
# gives the value eval gives, bit for bit; integer literals are left to
# eval, which rejects leading zeros, turns -0 into +0.0 and raises on an
# integer too large for a float.
_FLOAT = r"[+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)"
_PLAIN_ROW = f"{_FLOAT}(?:,{_FLOAT})*"

#: Largest ``Nx`` repetition count; no function here uses more than 8 marks.
MAX_REPEAT = 8

#: Longest angle expression, in characters once spaces are dropped; ``eval``
#: takes time that grows faster than the expression.
MAX_EXPRESSION = 1000

#: The suites of ``verify --suite`` and ``verify.run_suite``.
SUITES = ("roundtrip", "orthogonality", "signature", "crossroute", "complex", "all")

# json's escapes for the ASCII characters it escapes: C0 controls, DEL, '"' and '\'
_ESCAPES = {c: f"\\u{c:04x}" for c in [*range(0x20), 0x7F]} | {
    ord(c): "\\" + e for c, e in zip('"\\\b\t\n\f\r', '"\\btnfr')
}


def _quote(s: str) -> str:
    """``json.dumps(s, ensure_ascii=True)``: escaped ASCII first, then each
    other character as ``\\uXXXX``, past U+FFFF as a surrogate pair."""
    text = s.translate(_ESCAPES)
    if not text.isascii():
        text = "".join(c if c.isascii() else _unicode_escape(ord(c)) for c in text)
    return f'"{text}"'


def _unicode_escape(code: int) -> str:
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _numpy_types() -> tuple:
    """numpy's (integer, floating, ndarray), or empty tuples, which match
    nothing, while numpy is not loaded."""
    np = sys.modules.get("numpy")
    return ((), (), ()) if np is None else (np.integer, np.floating, np.ndarray)


def format_float(x: float) -> str:
    """A float at 17 significant digits (shortest '%.17g' form)."""
    np_integer, np_floating, _ = _numpy_types()
    if isinstance(x, (np_floating, np_integer)):
        x = x.item()
    if not math.isfinite(x):
        raise OutOfRange(f"cannot serialize non-finite float {x!r}")
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, compact, floats via format_float."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    np_integer, np_floating, np_ndarray = _numpy_types()
    if isinstance(obj, np_integer):
        return str(int(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (float, np_floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (list, tuple, np_ndarray)):
        items = list(obj)
        return "[" + ",".join(dumps_canonical(v) for v in items) + "]"
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise OutOfRange(f"JSON object keys must be strings, got {key!r}")
        parts = (
            _quote(k) + ":" + dumps_canonical(obj[k])
            for k in sorted(obj)
        )
        return "{" + ",".join(parts) + "}"
    raise OutOfRange(f"cannot serialize object of type {type(obj).__name__}")


def _eval_angle(expr: str) -> float:
    """Evaluate one angle expression over digits, pi, and + - * / ( )."""
    e = expr.strip().lower().replace(" ", "")
    if not e:
        raise OutOfRange("empty angle token")
    value = float(e) if re.fullmatch(_FLOAT, e) else _eval_expression(expr, e)
    if not math.isfinite(value):
        raise OutOfRange(f"angle token {expr!r} is not finite")
    return value


def _eval_expression(expr: str, e: str) -> float:
    """``eval`` of the normalized token ``e`` of ``expr`` once its syntax tree
    is arithmetic on numbers and names, of which ``pi`` alone is defined."""
    if len(e) > MAX_EXPRESSION:
        raise OutOfRange(f"angle token of {len(e)} characters exceeds {MAX_EXPRESSION}")
    if not re.match(r"^[0-9eE+\-*/().]*$", e.replace("pi", "")):
        raise OutOfRange(f"angle token {expr!r} contains unsupported characters")
    # implicit multiplication around pi: 2pi -> 2*pi, pi2 -> pi*2, )pi, pi( ...
    e = re.sub(r"(?<=[0-9.)])pi", "*pi", e)
    e = re.sub(r"pi(?=[0-9.(])", "pi*", e)
    import ast  # only for a token that is not a plain literal

    # no call, tuple, ``**`` or ``//``; an attribute (``0..e``) names none a number has
    arithmetic = (ast.Expression, ast.Constant, ast.Name, ast.Attribute, ast.Load, ast.BinOp,
                  ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.UAdd, ast.USub)
    try:
        if all(isinstance(node, arithmetic) for node in ast.walk(ast.parse(e, "<string>", "eval"))):
            # the checked text: compiling the tree object recurses in Python's stack
            return float(eval(e, {"__builtins__": {}}, {"pi": math.pi}))  # noqa: S307
    except Exception as exc:
        raise OutOfRange(f"cannot parse angle token {expr!r}: {exc}") from exc
    raise OutOfRange(f"angle token {expr!r} uses an unsupported operator")


def parse_theta(spec: str) -> list[float]:
    """Parse a comma-separated angle list with optional ``Nx`` repetitions."""
    text = spec.strip().replace("×", "x").replace("π", "pi")
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise OutOfRange(f"empty angle token in {spec!r}")
        rep = re.match(r"^(\d+)x(.+)$", token)
        if rep:
            digits = rep.group(1).lstrip("0") or "0"
            # checked before int(), which is slow on a long digit string
            if len(digits) > len(str(MAX_REPEAT)) or int(digits) > MAX_REPEAT:
                raise OutOfRange(f"repetition count in {token!r} exceeds {MAX_REPEAT}")
            count = int(digits)
            if count < 1:
                raise OutOfRange(f"repetition count must be positive in {token!r}")
            out.extend([_eval_angle(rep.group(2))] * count)
        else:
            out.append(_eval_angle(token))
    return out


def parse_rows(texts: Sequence[str]) -> list[list[float] | OutOfRange]:
    """:func:`parse_theta` over many rows: each row's angles, or its error.
    A row of comma-separated plain float literals takes one ``float()`` per
    literal (parse_theta's values, bit for bit); any other row, and one
    with a literal such as ``1e999`` that overflows to inf, takes parse_theta."""
    plain = re.compile(_PLAIN_ROW).fullmatch  # bound once for all the rows
    out: list = []
    for text in texts:
        values = list(map(float, text.split(","))) if plain(text) else None
        if values is None or not math.isfinite(sum(values)):
            try:
                values = parse_theta(text)
            except OutOfRange as exc:
                values = OutOfRange(str(exc))  # exc's traceback and chain hold ``out`` in a cycle
        out.append(values)
    return out


def _number(convert, text: str, what: str):
    """``convert(text)``, ``int`` or ``float``, or OutOfRange naming ``what``
    for what ``convert`` refuses and for what it takes that the angle tokens
    refuse: ``_`` and non-ASCII characters."""
    try:
        if "_" in text or not text.isascii():
            raise ValueError(text)
        return convert(text)
    except ValueError as exc:
        raise OutOfRange(f"cannot parse {what}") from exc


def parse_label(spec: str) -> tuple[int, ...]:
    """Parse a label word: '21435' or '2,1,4,3,5'."""
    text = spec.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    return tuple(_number(int, p, f"label {spec!r}") for p in parts)


def parse_shape(spec: str, n: int) -> tuple[float, ...]:
    """Parse 'P,Q' (n=5) or 'P,Q,R' (n=6)."""
    parts = [p.strip() for p in spec.strip().split(",")]
    want = 2 if n == 5 else 3
    if len(parts) != want:
        raise OutOfRange(
            f"shape for n={n} needs {want} comma-separated values, got {len(parts)}"
        )
    return tuple(_number(float, p, f"shape {spec!r}") for p in parts)


# No caller in src/: kept only while perfbench/tracer.py's TRACED names it.
def csv_row(values: Sequence) -> str:
    """One CSV row: comma separation, floats at 17 significant digits."""
    floats = (float, _numpy_types()[1])
    cells = []
    for v in values:
        if isinstance(v, floats):
            cells.append(format_float(v))
        else:
            cells.append(str(v))
    return ",".join(cells)
