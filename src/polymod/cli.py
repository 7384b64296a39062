"""Command-line interface.

Five subcommands: ``forward`` (weight vector to shape), ``invert`` (shape
pair to weight vector), ``complex`` (glued-complex reports), ``verify``
(randomized invariant suites), and ``sweep`` (CSV batch of forward maps).

stdout carries data (JSON documents or CSV), stderr carries diagnostics.
Every JSON document has ``schema`` and ``version`` fields and floats at 17
significant digits.  Exit codes: 0 success, 1 verification failures, 2 input
error (usage errors included), 3 the recovery circles do not intersect,
4 inconsistent shape pair, 5 an equal-weight precondition was violated,
6 an unexpected exception (a bug), reported as a ``polymod-error/1``
document that names its class, never as a traceback.

``verify`` takes ``--tol``, ``--samples``, ``--seed`` and ``--jobs``;
``invert`` takes ``--tol``.  A flag left out takes the engine's default.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .combinatorics import as_word, validate_weight, validate_weights
from .errors import OutOfRange, PolymodError, check_settings
from .jsonio import (
    SUITES,
    dumps_canonical,
    parse_label,
    parse_rows,
    parse_shape,
    parse_theta,
    plain_floats,
)

# The numeric layers (moduli, fiber, verify) and numpy load inside the
# commands that call them, after their input is validated, so ``complex``
# reports and rejected input never load them; ``complexes`` loads for the
# ``complex`` command alone.

#: Input rows that ``sweep`` parses, validates, maps and formats as one stack.
SWEEP_CHUNK = 256


def _given_settings(args: argparse.Namespace, *names: str) -> dict:
    """The run settings among ``names`` that were given as flags, checked
    (:func:`check_settings`) before any numeric layer loads."""
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    check_settings(**given)
    return given


def _emit(doc: dict) -> None:
    sys.stdout.write(dumps_canonical(doc) + "\n")


def _parse_weight(spec: str, n: int):
    return _check_count(validate_weight(parse_theta(spec)), n)


def _check_count(theta, n: int):
    if theta.n != n:
        raise OutOfRange(f"--theta has {theta.n} angles but --n is {n}")
    return theta


def _parse_word(spec: str | None, n: int) -> tuple[int, ...]:
    if spec is None:
        return tuple(range(1, n + 1))  # the identity word
    word = as_word(parse_label(spec))
    if len(word) != n:
        raise OutOfRange(f"--label has {len(word)} marks but --n is {n}")
    return word


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #

def cmd_forward(args: argparse.Namespace) -> int:
    theta = _parse_weight(args.theta, args.n)
    word = _parse_word(args.label, args.n)
    from .moduli import classify_hexahedron, pentagon_side_lengths, psi5, psi6

    doc = {
        "schema": "polymod-forward/1",
        "version": 1,
        "n": args.n,
        "theta": list(theta.theta),
        "label": "".join(str(m) for m in word),
    }
    if args.n == 5:
        shape = psi5(theta, word)
        sides = pentagon_side_lengths(shape)
        doc["shape"] = {"P": shape.P, "Q": shape.Q}
        doc["facet_order"] = list(sides.facet_order)
        doc["side_lengths"] = list(sides.lengths)
    else:
        shape = psi6(theta, word)
        doc["shape"] = {"P": shape.P, "Q": shape.Q, "R": shape.R}
        doc["classification"] = classify_hexahedron(shape)
    _emit(doc)
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    settings = _given_settings(args, "tol")
    from .fiber import inversion_report
    from .moduli import HexahedronShape, PentagonShape

    shape_cls = PentagonShape if args.n == 5 else HexahedronShape
    s1 = shape_cls(*parse_shape(args.shape1, args.n))
    s2 = shape_cls(*parse_shape(args.shape2, args.n))
    report = inversion_report(args.n, s1, s2, **settings)
    _emit(
        {
            "schema": "polymod-invert/1",
            "version": 1,
            "n": args.n,
            "shape1": list(s1.params),
            "shape2": list(s2.params),
            "w": list(report["w"].as_pair),
            "theta": list(report["theta"].theta),
            "residual": report["residual"],
        }
    )
    return 0


def cmd_complex(args: argparse.Namespace) -> int:
    theta = _parse_weight(args.theta, args.n) if args.theta is not None else None
    from .complexes import (
        build_complex,
        cusp_classes,
        euler_characteristic,
        pairing_row,
        singular_edges,
    )

    complex_ = build_complex(args.n, theta)
    doc = {
        "schema": "polymod-complex/1",
        "version": 1,
        "n": args.n,
        "theta": list(complex_.theta.theta),
        "report": args.report,
    }
    if args.report == "euler":
        doc.update(
            {
                "V": len(complex_.vertex_classes or ()),
                "E": complex_.num_pairings,
                "F": complex_.num_cells,
                "chi": euler_characteristic(complex_),
            }
        )
    elif args.report == "cusps":
        doc.update(cusp_classes(complex_))
    elif args.report == "pairings":
        doc["rows"] = complex_.num_pairings
        doc["pairings"] = [pairing_row(p) for p in complex_.pairings]
    else:  # singular
        doc.update(singular_edges(complex_))
    _emit(doc)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    settings = _given_settings(args, "tol", "samples", "seed", "jobs")
    from .verify import run_suite

    report = run_suite(args.suite, args.n, **settings)
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    word = _parse_word(args.label, args.n)
    try:
        # utf-8-sig: a byte-order mark, as spreadsheets write one, is no data
        with open(args.input, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise OutOfRange(f"cannot read input file {args.input!r}: {exc}") from exc
    with _output(args.out) as out:
        out.writelines(_sweep_csv(args.n, word, lines))
    return 0


@contextmanager
def _output(path: str):
    """Where ``sweep`` writes: stdout for '-', else ``path``, opened before
    any row is mapped, so a path that cannot be written costs no work; an
    OSError opening or writing it is OutOfRange."""
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise OutOfRange(f"cannot write output file {path!r}: {exc}") from exc


def _sweep_csv(n: int, word: tuple[int, ...], lines: list[str]) -> list[str]:
    """The output CSV of ``sweep`` over the input lines, one string per
    chunk; each failed row is reported on stderr, one chunk at a time.

    A chunk is parsed (:func:`polymod.jsonio.parse_rows`), validated and
    mapped as arrays, and its rows are written with one ``%`` template:
    the bytes of mapping and formatting the rows one at a time.
    """
    import numpy as np

    from .moduli import forward_params, hexahedron_signs, hexahedron_types

    header = [f"theta{i}" for i in range(1, n + 1)] + ["P", "Q"]
    template = ",".join(["%.17g"] * (n + 2))
    if n == 6:
        header += ["R", "type", "sign_P", "sign_Q", "sign_R"]
        template += ",%.17g,%s,%d,%d,%d"
    template += "\n"
    out = [",".join(header) + "\n"]

    rows = [
        (row_number, text)
        for row_number, text in enumerate((line.strip() for line in lines), start=1)
        if text
    ]
    first = None  # row 1's angles or failure when it is data, parsed once
    if rows and rows[0][0] == 1:
        first = _row_one(rows[0][1], n)
        if first is None:  # a header
            rows = rows[1:]
    for start in range(0, len(rows), SWEEP_CHUNK):
        chunk = rows[start : start + SWEEP_CHUNK]
        texts = [text for _, text in chunk]
        if start == 0 and first is not None:
            parsed = [first] + parse_rows(texts[1:], n)
        else:
            parsed = parse_rows(texts, n)
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
        out.append("".join([template % tuple(c) for c in cells]))
    return out


def _row_one(text: str, n: int) -> list[float] | PolymodError | None:
    """Row 1's angles or failure as :func:`parse_rows` gives them, or None
    when it is a header: no cell parses as an angle token.  Each cell is
    parsed at most once, and the row is not parsed again."""
    values = plain_floats(text, n)
    if values is not None:  # a float literal parses: data
        return values
    cells = text.split(",")
    parsed = []
    for cell in cells:
        try:
            parsed.append(parse_theta(cell))
        except PolymodError as exc:
            parsed.append(exc)
    if all(isinstance(p, PolymodError) for p in parsed):
        return None
    for cell, p in zip(cells, parsed):
        if isinstance(p, PolymodError):
            # parse_theta of the whole row names the row in this message
            return OutOfRange(f"empty angle token in {text!r}") if not cell.strip() else p
    return [value for p in parsed for value in p]


def _validate_rows(parsed: list, n: int) -> tuple:
    """Rows from :func:`parse_rows` validated as :func:`_parse_weight`
    validates them: the (N, n) angles and each row's failure or None.
    Rows of n angles are validated as one stack; a failed row's angles are
    meaningless."""
    import numpy as np

    errors = [row if isinstance(row, PolymodError) else None for row in parsed]
    for i, row in enumerate(parsed):
        if errors[i] is None and len(row) != n:
            try:
                _check_count(validate_weight(row), n)
            except PolymodError as exc:
                errors[i] = exc
    ok = [i for i, e in enumerate(errors) if e is None]
    theta, failures = validate_weights(np.array([parsed[i] for i in ok]).reshape(len(ok), n))
    full = np.zeros((len(parsed), n))
    full[ok] = theta
    for i, e in zip(ok, failures):
        errors[i] = e
    return full, errors


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as OutOfRange, so they follow the error contract."""

    def error(self, message: str):
        raise OutOfRange(f"{self.prog}: {message}")


def _add_tol_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=None, help="verification tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polymod",
        description="Shapes of weighted point configurations: forward and "
        "inverse maps, glued complexes, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forward = sub.add_parser("forward", help="weight vector to shape parameters")
    forward.add_argument("--n", type=int, required=True, choices=(5, 6))
    forward.add_argument("--theta", required=True, help="angles, e.g. '5x2pi/5'")
    forward.add_argument("--label", default=None, help="label word, e.g. 21435")
    forward.set_defaults(func=cmd_forward)

    invert = sub.add_parser("invert", help="designated shape pair to weight vector")
    invert.add_argument("--n", type=int, required=True, choices=(5, 6))
    invert.add_argument("--shape1", required=True, help="'P,Q' or 'P,Q,R'")
    invert.add_argument("--shape2", required=True, help="'P,Q' or 'P,Q,R'")
    _add_tol_flag(invert)
    invert.set_defaults(func=cmd_invert)

    complex_ = sub.add_parser("complex", help="glued-complex reports")
    complex_.add_argument("--n", type=int, required=True, choices=(5, 6))
    complex_.add_argument("--theta", default=None, help="defaults to equal weight")
    complex_.add_argument(
        "--report",
        required=True,
        choices=("euler", "cusps", "pairings", "singular"),
    )
    complex_.set_defaults(func=cmd_complex)

    verify = sub.add_parser("verify", help="randomized verification suites")
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--n", type=int, required=True, choices=(5, 6))
    _add_tol_flag(verify)
    verify.add_argument("--samples", type=int, default=None, help="number of random trials")
    verify.add_argument("--seed", type=int, default=None, help="base RNG seed")
    verify.add_argument("--jobs", type=int, default=None, help="worker processes")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="batch forward maps over a CSV of angles")
    sweep.add_argument("--n", type=int, required=True, choices=(5, 6))
    sweep.add_argument("--input", required=True, help="CSV file, one theta per row")
    sweep.add_argument("--label", default=None, help="label word for every row")
    sweep.add_argument("--out", required=True, help="output CSV path ('-' = stdout)")
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # a PolymodError exits with its code, a bug with 6
        _emit(
            {
                "schema": "polymod-error/1",
                "version": 1,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
        return exc.exit_code if isinstance(exc, PolymodError) else 6


def _process_entry() -> None:
    """``polymod`` as a process, for the console script and ``python -m
    polymod.cli``: :func:`main` on ``sys.argv``, its code the exit status.

    A reader that closes stdout early, as ``| head`` does, ends the process
    with 141 (128 + SIGPIPE, where a shell reports ``cat``) and prints
    nothing; fd 1 then points at ``os.devnull``, so the flush at exit
    cannot fail again.  ``gc.freeze()`` after the work spares the
    collections at interpreter teardown from walking numpy's objects.
    ``main`` does neither, since tests and library callers run it in
    process.
    """
    import gc
    import os

    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    _process_entry()
