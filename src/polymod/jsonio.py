"""Canonical serialization and input-token parsing.

JSON documents are rendered with sorted keys, compact separators, and every
float at 17 significant digits, so equal data always produces identical
bytes.  Angle tokens accept raw radians, expressions in ``pi`` such as
``2pi/5`` or ``2/5*2pi``, and a repetition prefix ``5x2pi/5``; the unicode
spellings ``×`` and ``π`` are accepted as synonyms, and a token containing
``@`` is rejected.  A repetition count is at most ``MAX_REPEAT``.
``SUITES`` names the accepted ``--suite`` tokens, so the command line can
check them without loading the verification engine.

numpy scalars and arrays serialize as they always have, but this module
never imports numpy: until numpy is loaded no value can be of its types,
so the type checks read numpy from ``sys.modules``.
"""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from functools import lru_cache
from typing import Sequence

from .errors import OutOfRange

_ANGLE_CHARS = re.compile(r"^[0-9eE@+\-*/().]*$")
# A signed float literal with a point or an exponent.  For these float()
# gives the value eval gives, bit for bit; integer literals are left to
# eval, which rejects leading zeros, turns -0 into +0.0 and raises on an
# integer too large for a float.
_FLOAT = r"[+-]?(?:(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)"
_FLOAT_LITERAL = re.compile(_FLOAT)
_REPEAT = re.compile(r"^(\d+)x(.+)$")

#: Largest ``Nx`` repetition count; no function here uses more than 8 marks.
MAX_REPEAT = 8

#: The suites of ``verify --suite`` and ``verify.run_suite``.
SUITES = ("roundtrip", "orthogonality", "signature", "crossroute", "complex", "all")


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
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple, np_ndarray)):
        items = list(obj)
        return "[" + ",".join(dumps_canonical(v) for v in items) + "]"
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise OutOfRange(f"JSON object keys must be strings, got {key!r}")
        parts = (
            json.dumps(k, ensure_ascii=True) + ":" + dumps_canonical(obj[k])
            for k in sorted(obj)
        )
        return "{" + ",".join(parts) + "}"
    raise OutOfRange(f"cannot serialize object of type {type(obj).__name__}")


def _eval_angle(expr: str) -> float:
    """Evaluate one angle expression over digits, pi, and + - * / ( )."""
    e = expr.strip().lower().replace(" ", "")
    if not e:
        raise OutOfRange("empty angle token")
    value = float(e) if _FLOAT_LITERAL.fullmatch(e) else _eval_expression(expr, e)
    if not math.isfinite(value):
        raise OutOfRange(f"angle token {expr!r} is not finite")
    return value


def _eval_expression(expr: str, e: str) -> float:
    """``eval`` of the normalized token ``e`` of ``expr`` in pi alone."""
    # ``@`` stands for pi below, so it is refused before pi is rewritten to it
    if "@" in e or not _ANGLE_CHARS.match(e := e.replace("pi", "@")):
        raise OutOfRange(f"angle token {expr!r} contains unsupported characters")
    # ``**`` can build integers of unbounded size and ``//`` floors: no angle uses them
    if "**" in e or "//" in e:
        raise OutOfRange(f"angle token {expr!r} uses an unsupported operator")
    # implicit multiplication around pi: 2pi -> 2*pi, pi2 -> pi*2, )pi, pi( ...
    e = re.sub(r"(?<=[0-9.)])@", "*@", e)
    e = re.sub(r"@(?=[0-9.(])", "@*", e)
    try:
        # compiling a token such as ``2(3)`` warns that an int is not callable
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)
            value = eval(  # noqa: S307 - characters and operators restricted above
                e.replace("@", "pi"), {"__builtins__": {}}, {"pi": math.pi}
            )
        return float(value)
    except Exception as exc:
        raise OutOfRange(f"cannot parse angle token {expr!r}: {exc}") from exc


def parse_theta(spec: str) -> list[float]:
    """Parse a comma-separated angle list with optional ``Nx`` repetitions."""
    text = spec.strip().replace("×", "x").replace("π", "pi")
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise OutOfRange(f"empty angle token in {spec!r}")
        rep = _REPEAT.match(token)
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


@lru_cache(maxsize=None)
def _plain_row(n: int) -> re.Pattern:
    """Exactly ``n`` comma-separated plain float literals, no spaces."""
    return re.compile(",".join([_FLOAT] * n))


def plain_floats(text: str, n: int) -> list[float] | None:
    """The angles of a row of exactly ``n`` plain float literals, each
    converted by one ``float()`` (parse_theta's values, bit for bit), or
    None for any other row: expressions, ``Nx`` repeats, integers, spaces
    inside the row, another cell count, or a literal such as ``1e999``
    that overflows to inf."""
    if not _plain_row(n).fullmatch(text):
        return None
    values = list(map(float, text.split(",")))
    return values if math.isfinite(sum(values)) else None


def parse_rows(texts: Sequence[str], n: int) -> list[list[float] | OutOfRange]:
    """:func:`parse_theta` over many rows: each row's angles, or its error.
    A row of ``n`` plain float literals takes :func:`plain_floats`."""
    out: list = []
    for text in texts:
        values = plain_floats(text, n)
        if values is None:
            try:
                values = parse_theta(text)
            except OutOfRange as exc:
                values = exc
        out.append(values)
    return out


def parse_label(spec: str) -> tuple[int, ...]:
    """Parse a label word: '21435' or '2,1,4,3,5'."""
    text = spec.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    else:
        parts = list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise OutOfRange(f"cannot parse label {spec!r}") from exc


def parse_shape(spec: str, n: int) -> tuple[float, ...]:
    """Parse 'P,Q' (n=5) or 'P,Q,R' (n=6)."""
    parts = [p.strip() for p in spec.strip().split(",")]
    want = 2 if n == 5 else 3
    if len(parts) != want:
        raise OutOfRange(
            f"shape for n={n} needs {want} comma-separated values, got {len(parts)}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise OutOfRange(f"cannot parse shape {spec!r}") from exc


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
