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
import os
import sys

from .combinatorics import as_word, validate_weight
from .errors import OutOfRange, PolymodError, check_settings
from .jsonio import SUITES, _number, dumps_canonical, parse_label, parse_shape, parse_theta

# The numeric layers (moduli, fiber, verify) and numpy load inside the
# commands that call them, after their input is validated, so ``complex``
# reports and rejected input never load them; ``complexes`` loads for the
# ``complex`` command alone, and ``sweep``'s row layer for ``sweep`` alone.


def _given_settings(args: argparse.Namespace, *names: str) -> dict:
    """The run settings among ``names`` that were given as flags, read as
    the shapes are (:func:`polymod.jsonio._number`) and checked
    (:func:`check_settings`) before any numeric layer loads."""
    given = {name: _number(float if name == "tol" else int, text, f"--{name} {text!r}")
             for name in names if (text := getattr(args, name)) is not None}
    check_settings(**given)
    return given


def _emit(doc: dict) -> None:
    sys.stdout.write(dumps_canonical(doc) + "\n")


def _parse_weight(spec: str, n: int):
    theta = validate_weight(parse_theta(spec))
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
        fh = open(args.input, encoding="utf-8-sig")
    except OSError as exc:
        raise OutOfRange(f"cannot read input file {args.input!r}: {exc}") from exc
    from .sweep import write_csv

    write_csv(args.n, word, fh, args.input, args.out)
    return 0


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as OutOfRange, so they follow the error contract."""

    def error(self, message: str):
        raise OutOfRange(f"{self.prog}: {message}")


def _n_flag(text: str) -> int:
    """``--n`` read by :func:`polymod.jsonio._number`, refused in argparse's words for ``int``."""
    try:
        return _number(int, text, "--n")
    except OutOfRange:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polymod",
        description="Shapes of weighted point configurations: forward and "
        "inverse maps, glued complexes, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forward = sub.add_parser("forward", help="weight vector to shape parameters")
    forward.add_argument("--n", type=_n_flag, required=True, choices=(5, 6))
    forward.add_argument("--theta", required=True, help="angles, e.g. '5x2pi/5'")
    forward.add_argument("--label", default=None, help="label word, e.g. 21435")
    forward.set_defaults(func=cmd_forward)

    invert = sub.add_parser("invert", help="designated shape pair to weight vector")
    invert.add_argument("--n", type=_n_flag, required=True, choices=(5, 6))
    invert.add_argument("--shape1", required=True, help="'P,Q' or 'P,Q,R'")
    invert.add_argument("--shape2", required=True, help="'P,Q' or 'P,Q,R'")
    invert.add_argument("--tol", default=None, help="verification tolerance")
    invert.set_defaults(func=cmd_invert)

    complex_ = sub.add_parser("complex", help="glued-complex reports")
    complex_.add_argument("--n", type=_n_flag, required=True, choices=(5, 6))
    complex_.add_argument("--theta", default=None, help="defaults to equal weight")
    complex_.add_argument(
        "--report",
        required=True,
        choices=("euler", "cusps", "pairings", "singular"),
    )
    complex_.set_defaults(func=cmd_complex)

    verify = sub.add_parser("verify", help="randomized verification suites")
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--n", type=_n_flag, required=True, choices=(5, 6))
    verify.add_argument("--tol", default=None, help="verification tolerance")
    verify.add_argument("--samples", default=None, help="number of random trials")
    verify.add_argument("--seed", default=None, help="base RNG seed")
    verify.add_argument("--jobs", default=None, help="worker processes")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="batch forward maps over a CSV of angles")
    sweep.add_argument("--n", type=_n_flag, required=True, choices=(5, 6))
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
    OpenBLAS gets one thread unless ``OPENBLAS_NUM_THREADS`` is set: no
    matrix here is larger than 7x7, so a second thread would only spin.
    ``main`` does none of this: tests and library callers run it.
    """
    import gc

    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
