"""Command-line interface.

Five subcommands: ``forward`` (weight vector to shape), ``invert`` (shape
pair to weight vector), ``complex`` (glued-complex reports), ``verify``
(randomized invariant suites), and ``sweep`` (CSV batch of forward maps).

stdout carries data (JSON documents or CSV), stderr carries diagnostics.
Every JSON document has ``schema`` and ``version`` fields and floats at 17
significant digits.  Exit codes: 0 success, 1 verification failures, 2 input
error (usage errors included), 3 the recovery circles do not intersect,
4 inconsistent shape pair, 5 an equal-weight precondition was violated.

``verify`` takes ``--tol``, ``--samples``, ``--seed`` and ``--jobs``;
``invert`` takes ``--tol``.  Only these two read the JSON file named by the
environment variable POLYMOD_CONFIG, which may set defaults for ``tol`` (a
JSON number), ``samples``, ``seed`` and ``jobs`` (JSON integers); explicit
flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .combinatorics import as_word, validate_weight
from .complexes import (
    build_complex,
    cusp_classes,
    euler_characteristic,
    pairing_row,
    singular_edges,
)
from .errors import OutOfRange, PolymodError, check_settings, map_ok
from .jsonio import SUITES, csv_row, dumps_canonical, parse_label, parse_shape, parse_theta

# The numeric layers (moduli, fiber, verify) and numpy load inside the
# commands that call them, after their input is validated, so ``complex``
# reports and rejected input never load them.

_CONFIG_ENV = "POLYMOD_CONFIG"

#: Input rows per stacked forward-map call in ``sweep``.
SWEEP_CHUNK = 256


@dataclass(frozen=True)
class RunConfig:
    """Tolerance, sampling, and parallelism of ``verify`` (``invert`` reads ``tol``)."""

    tol: float = 1e-9
    samples: int = 1000
    seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        check_settings(self.tol, self.samples, self.seed, self.jobs)


#: The JSON value types each config key accepts; a bool is neither.
_CONFIG_TYPES = {"tol": (int, float), "samples": (int,), "seed": (int,), "jobs": (int,)}


def load_config(environ=None) -> RunConfig:
    """RunConfig from the optional POLYMOD_CONFIG JSON file."""
    env = os.environ if environ is None else environ
    path = env.get(_CONFIG_ENV)
    if not path:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise OutOfRange(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise OutOfRange(f"config file {path!r} must hold a JSON object")
    fields = {}
    for key, value in raw.items():
        if key not in _CONFIG_TYPES:
            raise OutOfRange(
                f"unknown config key {key!r}; known keys: "
                f"{', '.join(sorted(_CONFIG_TYPES))}"
            )
        if type(value) not in _CONFIG_TYPES[key]:
            kind = "number" if key == "tol" else "integer"
            raise OutOfRange(f"config value for {key!r} must be a JSON {kind}, got {value!r}")
        if key == "tol":
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
        fields[key] = value
    return RunConfig(**fields)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config()
    overrides = {
        key: getattr(args, key)
        for key in _CONFIG_TYPES
        if getattr(args, key, None) is not None
    }
    return replace(config, **overrides) if overrides else config


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
    config = _resolve_config(args)
    from .fiber import inversion_report
    from .moduli import HexahedronShape, PentagonShape

    shape_cls = PentagonShape if args.n == 5 else HexahedronShape
    s1 = shape_cls(*parse_shape(args.shape1, args.n))
    s2 = shape_cls(*parse_shape(args.shape2, args.n))
    report = inversion_report(args.n, s1, s2, config.tol)
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
    theta = _parse_weight(args.theta, args.n) if args.theta else None
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
    config = _resolve_config(args)
    from .verify import run_suite

    report = run_suite(
        args.suite, args.n, config.samples, config.seed, config.tol, config.jobs
    )
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    word = _parse_word(args.label, args.n)
    from .moduli import classify_hexahedron, forward_shapes

    try:
        with open(args.input, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise OutOfRange(f"cannot read input file {args.input!r}: {exc}") from exc

    if args.n == 5:
        header = [f"theta{i}" for i in range(1, 6)] + ["P", "Q"]
    else:
        header = (
            [f"theta{i}" for i in range(1, 7)]
            + ["P", "Q", "R", "type", "sign_P", "sign_Q", "sign_R"]
        )
    out_lines = [",".join(header)]

    rows = [
        (row_number, text)
        for row_number, text in enumerate((line.strip() for line in lines), start=1)
        if text and not (row_number == 1 and _looks_like_header(text))
    ]
    for start in range(0, len(rows), SWEEP_CHUNK):
        chunk = rows[start : start + SWEEP_CHUNK]
        thetas: list = []
        for _, text in chunk:
            try:
                thetas.append(_parse_weight(text, args.n))
            except PolymodError as exc:
                thetas.append(exc)
        shapes = map_ok(lambda ok: forward_shapes(args.n, ok, [word] * len(ok)), thetas)
        for (row_number, _), theta, shape in zip(chunk, thetas, shapes):
            if isinstance(shape, PolymodError):
                sys.stderr.write(f"row {row_number}: {type(shape).__name__}: {shape}\n")
                continue
            cells = list(theta.theta) + list(shape.params)
            if args.n == 6:
                cells += [classify_hexahedron(shape)["type"]] + list(shape.signs)
            out_lines.append(csv_row(cells))

    data = "\n".join(out_lines) + "\n"
    if args.out == "-":
        sys.stdout.write(data)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(data)
        except OSError as exc:
            raise OutOfRange(f"cannot write output file {args.out!r}: {exc}") from exc
    return 0


def _looks_like_header(line: str) -> bool:
    """True when no cell of the first row parses as an angle token."""
    for cell in line.split(","):
        try:
            parse_theta(cell)
        except PolymodError:
            continue
        return False
    return True


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
    except PolymodError as exc:
        _emit(
            {
                "schema": "polymod-error/1",
                "version": 1,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
