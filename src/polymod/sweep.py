"""The row layer of ``polymod sweep``: a CSV of angle rows in, a CSV of
forward maps out, one chunk of rows at a time.

Only the ``sweep`` command loads this module, so no other command compiles
it.  It never imports ``polymod.cli``: under ``python -m polymod.cli`` that
import would run the command-line module a second time.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from itertools import islice

from .errors import OutOfRange, PolymodError

#: Input rows that ``sweep`` parses, validates, maps and formats as one stack.
SWEEP_CHUNK = 256


def write_csv(n: int, word: tuple[int, ...], fh, path: str, out_path: str) -> None:
    """Write the output CSV of the rows of ``fh``, the open input file
    ``path``, to ``out_path`` ('-' for stdout), and close ``fh``; each
    failed row is reported on stderr."""
    with fh, _output(out_path, path) as out:
        out.writelines(_sweep_csv(n, word, _input_rows(fh, path)))


@contextmanager
def _output(path: str, source: str):
    """Where ``sweep`` writes: stdout for '-', else ``path``, opened before
    any row is read, so a path that cannot be written costs no work; an
    OSError opening or writing it is OutOfRange, and so is the input's own
    path, which opening would truncate."""
    if path == "-":
        yield sys.stdout
        return
    try:
        if os.path.exists(path) and os.path.samefile(path, source):
            raise OSError("it is the input file")
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OutOfRange(f"cannot write output file {path!r}: {exc}") from exc


def _input_rows(fh, path: str):
    """The non-blank rows of the open input as (row number, stripped text),
    split as ``str.splitlines`` splits the whole text, since each line of
    ``fh`` ends at a line break.  A read error is OutOfRange, and so is a
    byte that is not UTF-8, placed after the last row read."""
    row_number = 0
    try:
        for line in fh:
            for text in line.splitlines():
                row_number += 1
                if text := text.strip():
                    yield row_number, text
    except UnicodeDecodeError as exc:  # its position counts from a read-ahead block
        reason = f"a byte after row {row_number} is not UTF-8 ({exc.reason})"
        raise OutOfRange(f"cannot read input file {path!r}: {reason}") from exc
    except OSError as exc:
        raise OutOfRange(f"cannot read input file {path!r}: {exc}") from exc


def _sweep_csv(n: int, word: tuple[int, ...], rows):
    """The output CSV of ``sweep`` over the numbered input rows, one string
    per ``SWEEP_CHUNK`` rows as they are read, the header with the first;
    each failed row is reported on stderr, one chunk at a time.

    A chunk is parsed (:func:`polymod.jsonio.parse_rows`), validated and
    mapped as arrays, and its rows are written with one ``%`` template:
    the bytes of mapping and formatting the rows one at a time.
    """
    import numpy as np

    from .jsonio import parse_rows
    from .moduli import forward_params, hexahedron_signs, hexahedron_types

    header = [f"theta{i}" for i in range(1, n + 1)] + ["P", "Q"]
    template = ",".join(["%.17g"] * (n + 2))
    if n == 6:
        header += ["R", "type", "sign_P", "sign_Q", "sign_R"]
        template += ",%.17g,%s,%d,%d,%d"
    template += "\n"
    head = ",".join(header) + "\n"  # written with the first chunk
    # a file without data rows still makes one, empty, chunk for the header
    while (chunk := list(islice(rows, SWEEP_CHUNK))) or head:
        # row 1 is a header when no cell parses as an angle token
        if chunk and chunk[0][0] == 1 and all(
            isinstance(p, PolymodError) for p in parse_rows(chunk[0][1].split(","))
        ):
            chunk = chunk[1:] + list(islice(rows, 1))  # the next row takes its place
        parsed = parse_rows([text for _, text in chunk])
        theta, errors = _validate_rows(parsed, n)
        ok = [i for i, e in enumerate(errors) if e is None]
        params, failures = forward_params(n, theta[ok], [word] * len(ok))
        for i, e in zip(ok, failures):
            errors[i] = e
        mapped = [j for j, e in enumerate(failures) if e is None]
        values = np.concatenate([theta[ok][mapped], params[mapped]], axis=1)
        # the gates keep every mapped value finite; a row that is not would
        # stop the run there, as serializing it one row at a time did
        finite = np.isfinite(values).all(axis=1)
        stop = len(chunk) if finite.all() else ok[mapped[int(finite.argmin())]]
        sys.stderr.write(
            "".join(
                f"row {row_number}: {type(e).__name__}: {e}\n"
                for (row_number, _), e in zip(chunk[:stop], errors)
                if e is not None
            )
        )
        if stop < len(chunk):
            x = values[~np.isfinite(values)][0].item()
            raise OutOfRange(f"cannot serialize non-finite float {x!r}")
        cells = values.tolist()
        if n == 6:
            signs = hexahedron_signs(params[mapped])
            types = hexahedron_types(signs)
            cells = [c + [t] + s for c, t, s in zip(cells, types, signs.tolist())]
        yield head + "".join([template % tuple(c) for c in cells])
        head = ""


def _validate_rows(parsed: list, n: int) -> tuple:
    """Rows from :func:`polymod.jsonio.parse_rows` validated as the CLI's
    ``--theta`` is validated: the (N, n) angles and each row's failure or
    None.  Rows of n angles are validated as one stack; a failed row's
    angles are meaningless."""
    import numpy as np

    from .combinatorics import validate_weight, validate_weights

    errors = [row if isinstance(row, PolymodError) else None for row in parsed]
    for i, row in enumerate(parsed):
        if errors[i] is None and len(row) != n:
            try:  # cli._parse_weight's checks, in its order
                validate_weight(row)
                raise OutOfRange(f"--theta has {len(row)} angles but --n is {n}")
            except PolymodError as exc:
                errors[i] = exc.with_traceback(None)  # its traceback holds ``errors`` in a cycle
    ok = [i for i, e in enumerate(errors) if e is None]
    theta, failures = validate_weights(np.array([parsed[i] for i in ok]).reshape(len(ok), n))
    full = np.zeros((len(parsed), n))
    full[ok] = theta
    for i, e in zip(ok, failures):
        errors[i] = e
    return full, errors
