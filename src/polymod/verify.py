"""Randomized verification suites behind the command-line ``verify`` command.

This module is the one verification engine.  Every sampled suite is one
function of a trial's rows that returns the trial's error; one pass over
the trials (one pool or serial loop, ``all`` included) runs every requested
suite.  Trial i draws its weight vector and a random label word once, from
``numpy.random.default_rng([seed, i])``.  Trials run in chunks of
``TRIAL_CHUNK``: one stacked Lorentz kernel call builds the chunk's models
and completion triangles, whose feet give the chunk's planar parameters,
one maps the chunk forward on the designated label pair and one batched
inversion inverts the chunk's shape pairs, and every row of a stacked call
is computed as it would be alone, or holds its failure
(:func:`polymod.errors.unwrap`).  Outcomes are kept as columns: per suite,
one entry per trial in trial order, its error or the ``"Class: message"``
text of what it raised, so a trial's index is its position.  The separation
scan reads three arrays, the trial index, theta and shape parameters of
each designated pair that mapped, concatenated once over the chunks.
Reports are deterministic for a fixed (n, samples, seed, tol) and
byte-identical across runs and across worker counts.  Suites:

* ``roundtrip``     — forward map on the designated label pair, then invert,
  followed by a scan for the minimum separation of the produced shape pairs;
* ``orthogonality`` — the always-orthogonal facet pairs meet at right angles;
* ``signature``     — the area form on the closing space has signature (1, n-3);
* ``crossroute``    — planar feet agree with Lorentzian axis intercepts;
* ``complex``       — exact cell/pairing/orbit counts of the glued complex;
* ``all``           — everything above, one sub-report per suite.
"""

from __future__ import annotations

import math
import os
from functools import partial
from itertools import combinations
from typing import Callable

import numpy as np

from .combinatorics import WeightVector, sample_weight_rng
from .complexes import build_complex, cusp_classes, euler_characteristic
from .errors import OutOfRange, PolymodError, check_settings, map_ok, rows, unwrap
from .fiber import designated_pairs, inversion_reports
from .jsonio import SUITES
from .lorentz import LorentzModel, build_models, dihedral_angle
from .moduli import HexahedronShape, PentagonShape, planar_params, relative_residual

#: facet pairs that meet at right angles for every weight vector and label
ORTHOGONAL_PAIRS = {
    5: ((1, 3), (2, 4), (3, 5), (4, 1), (5, 2)),
    6: ((1, 4), (2, 5), (3, 6), (1, 3), (3, 5), (5, 1), (2, 4), (4, 6), (6, 2)),
}

_RIGHT_ANGLE = math.pi / 2.0

#: Trials per pool task.  A task draws its trials, then builds their models,
#: maps them forward and inverts them with one stacked call each.
TRIAL_CHUNK = 64

#: The sampled suites, in report order, and those that read the trial's own
#: Lorentz model.
_SAMPLED = ("roundtrip", "orthogonality", "signature", "crossroute")
_MODEL_SUITES = _SAMPLED[1:]


def _outcome(check: Callable[[int], float], k: int) -> float | str:
    """Row k's error, or the ``"Class: message"`` text of the PolymodError
    its check raised; any other exception is a bug and propagates."""
    try:
        return check(k)
    except PolymodError as exc:  # failures are data, not crashes
        return f"{type(exc).__name__}: {exc}"


def _roundtrip(theta: WeightVector, inversion: dict) -> float:
    # The designated label pair, not the random word, determines theta.
    back = inversion["theta"]
    return max(abs(a - b) for a, b in zip(theta.theta, back.theta))


def _orthogonality(model: LorentzModel) -> float:
    return max(
        abs(dihedral_angle(model, j, k) - _RIGHT_ANGLE) for j, k in ORTHOGONAL_PAIRS[model.n]
    )


def _signature(model: LorentzModel) -> float:
    # building the model is the check: it raises SignatureMismatch unless
    # the area form has signature (1, n-3)
    return 0.0


def _crossroute(planar: list[float], lorentz: tuple[float, ...]) -> float:
    # Linear scale, unlike moduli.scaled_residual's squared one: squaring it
    # would loosen this gate, so the two rules stay apart until one
    # derivation is settled for both.
    return max(map(relative_residual, planar, lorentz))


def _run_chunk(
    suites: tuple[str, ...], n: int, seed: int, tol: float, trials: range
) -> tuple[dict[str, list], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Deterministic trials of each suite; trial i's rng depends only on (seed, i).

    Returns each suite's outcomes, one per trial in order (its error, or
    its failure text), and the scan columns: the trial index, theta and
    designated-pair shape parameters of each trial whose pair mapped, so a
    trial whose inversion fails is still scanned.  One kernel call builds
    every trial's model and completion triangle (when a suite reads them),
    and crossroute reads its planar parameters from those triangles; for
    roundtrip, one call maps every trial forward on the designated label
    pair and one batched inversion inverts every pair that mapped.
    """
    thetas, words = [], []
    for trial in trials:
        rng = np.random.default_rng([seed, trial])
        thetas.append(sample_weight_rng(n, rng))
        words.append(tuple(int(m) + 1 for m in rng.permutation(n)))
    theta = np.array([t.theta for t in thetas])
    models = build_models(theta, words) if set(suites) & set(_MODEL_SUITES) else None
    planar = rows(*planar_params(models.triangles)) if "crossroute" in suites else None
    inversions = scan = None
    if "roundtrip" in suites:
        params, errors = designated_pairs(n, theta)
        shape, k = PentagonShape if n == 5 else HexahedronShape, n - 3
        # inversion takes shape objects: one pair per mapped row, else its failure
        pairs = [e or (shape(*row[:k]), shape(*row[k:])) for row, e in zip(params.tolist(), errors)]
        inversions = map_ok(lambda ok: inversion_reports(n, ok, tol), pairs)
        mapped = np.array([e is None for e in errors])
        scan = (np.array(trials)[mapped], theta[mapped], params[mapped])
    # A row of a stacked call holds its failure, which ``unwrap`` and
    # ``ModelStack`` raise, so each suite that reads the row records it.
    checks = {
        "roundtrip": lambda k: _roundtrip(thetas[k], unwrap(inversions[k])),
        "orthogonality": lambda k: _orthogonality(models.model(k)),
        "signature": lambda k: _signature(models.model(k)),
        "crossroute": lambda k: _crossroute(unwrap(planar[k]), models.axis_intercepts(k)),
    }
    indices = range(len(trials))
    return {suite: [_outcome(checks[suite], k) for k in indices] for suite in suites}, scan


def _separation_scan(
    trials: np.ndarray, thetas: np.ndarray, shapes: np.ndarray
) -> tuple[float | None, dict | None]:
    """Minimum pairwise Chebyshev distance of the scanned shape pairs.

    The columns hold the trial index, theta and shape parameters of each
    designated pair that mapped.  A zero distance between trials whose
    weight vectors differ is a collision, a counterexample to injectivity
    at sample scale.
    """
    min_sep = math.inf
    collision = None
    for i in range(len(shapes)):
        sep = np.abs(shapes[i + 1 :] - shapes[i]).max(axis=1)
        if sep.size:
            j = int(np.argmin(sep))
            if float(sep[j]) < min_sep:
                min_sep = float(sep[j])
                theta_sep = float(np.abs(thetas[i + 1 + j] - thetas[i]).max())
                if min_sep == 0.0 and theta_sep > 1e-6:
                    collision = {
                        "trials": [int(trials[i]), int(trials[i + 1 + j])],
                        "theta_separation": theta_sep,
                    }
    return (min_sep if math.isfinite(min_sep) else None), collision


def _run_sampled(
    suites: tuple[str, ...], n: int, samples: int, seed: int, tol: float, jobs: int
) -> dict[str, dict]:
    """One pass over the trials, split into one report per suite."""
    run = partial(_run_chunk, suites, n, seed, tol)
    chunks = [range(i, min(i + TRIAL_CHUNK, samples)) for i in range(0, samples, TRIAL_CHUNK)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The pool starts all its workers at once: never more than the cores.
        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            done = list(pool.map(run, chunks))
    else:
        done = [run(chunk) for chunk in chunks]

    reports = {}
    for suite in suites:
        # chunks cover the trials in order, so a trial is its position
        outcomes = [out for columns, _ in done for out in columns[suite]]
        errors = [out for out in outcomes if not isinstance(out, str)]
        failures = [
            {"trial": trial, "failure" if isinstance(out, str) else "error": out}
            for trial, out in enumerate(outcomes)
            if isinstance(out, str) or out > tol
        ]
        extra = {"max_error": max(errors) if errors else None}
        if suite == "roundtrip":
            scan = (np.concatenate(column) for column in zip(*(cols for _, cols in done)))
            extra["min_shape_separation"], collision = _separation_scan(*scan)
            if collision is not None:
                failures.append({"collision": collision})
        reports[suite] = _report(suite, n, samples, seed, tol, **extra, failures=failures)
    return reports


def _report(suite, n, samples, seed, tol, **extra) -> dict:
    doc = {
        "schema": "polymod-verify/1",
        "version": 1,
        "suite": suite,
        "n": n,
        "samples": samples,
        "seed": seed,
        "tol": tol,
    }
    doc.update(extra)
    doc["pass"] = not doc.get("failures")
    return doc


def _all_triple_partitions() -> list[list[list[int]]]:
    out = []
    for triple in combinations(range(1, 7), 3):
        if 1 in triple:
            rest = sorted(set(range(1, 7)) - set(triple))
            out.append(sorted([sorted(triple), rest]))
    return sorted(out)


def _run_complex(n: int, samples: int, seed: int, tol: float) -> dict:
    complex_ = build_complex(n)
    failures = []

    def expect(what: str, actual, wanted) -> None:
        if actual != wanted:
            failures.append({"check": what, "actual": actual, "expected": wanted})

    counts = {"cells": complex_.num_cells, "pairings": complex_.num_pairings}
    if n == 5:
        expect("cells", complex_.num_cells, 12)
        expect("pairings", complex_.num_pairings, 30)
        expect("vertex_classes", len(complex_.vertex_classes), 15)
        expect(
            "vertex_class_sizes",
            sorted({len(g) for g in complex_.vertex_classes}),
            [4],
        )
        counts["vertex_classes"] = len(complex_.vertex_classes)
        counts["euler_characteristic"] = euler_characteristic(complex_)
        expect("euler_characteristic", counts["euler_characteristic"], -3)
    else:
        expect("cells", complex_.num_cells, 60)
        expect("pairings", complex_.num_pairings, 180)
        cusps = cusp_classes(complex_)
        counts["cusp_classes"] = cusps["classes"]
        expect("cusp_classes", cusps["classes"], 10)
        expect(
            "cusp_incidences",
            sorted({row["incidences"] for row in cusps["table"]}),
            [18],
        )
        expect(
            "cusp_partitions",
            [row["partition"] for row in cusps["table"]],
            _all_triple_partitions(),
        )
    return _report("complex", n, samples, seed, tol, counts=counts, failures=failures)


def run_suite(
    suite: str,
    n: int,
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
    jobs: int = 1,
) -> dict:
    """Run one named suite (or ``all``) and return its JSON-ready report.

    The report never mentions ``jobs``; worker count only affects wall time.
    """
    if suite not in SUITES:
        raise OutOfRange(f"unknown suite {suite!r}, expected one of {SUITES}")
    if n not in (5, 6):
        raise OutOfRange(f"n must be 5 or 6, got {n}")
    check_settings(tol, samples, seed, jobs)
    if suite == "complex":
        return _run_complex(n, samples, seed, tol)
    if suite != "all":
        return _run_sampled((suite,), n, samples, seed, tol, jobs)[suite]

    reports = _run_sampled(_SAMPLED, n, samples, seed, tol, jobs)
    reports["complex"] = _run_complex(n, samples, seed, tol)
    doc = _report("all", n, samples, seed, tol, reports=reports)
    doc["pass"] = all(rep["pass"] for rep in reports.values())
    return doc
