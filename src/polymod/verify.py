"""Randomized verification suites behind the command-line ``verify`` command.

This module is the one verification engine: one pass over the trials (one
pool or serial loop, ``all`` included) runs every requested suite.  Trial i
draws its weight vector and a random label word once, from
``numpy.random.default_rng([seed, i])``.  Trials run in chunks of
``TRIAL_CHUNK``, and every sampled suite is computed on the chunk's
columns: one sampler call draws the weight vectors, one Lorentz kernel call
builds the models and completion triangles, one pairing call gives every
model's dihedral angles, one forward call maps the chunk on the designated
label pair and one column inverse inverts its shape pairs.  Every row of a
stacked call is computed as it would be alone, or holds its failure.
Outcomes are columns too: per suite, one entry per trial in trial order,
its error or the ``"Class: message"`` text of its failure.  The separation
scan reads the trial index, theta and shape parameters of each designated
pair that mapped, concatenated once over the chunks.  Reports are
deterministic for a fixed (n, samples, seed, tol) and byte-identical across
runs and across worker counts.  Suites:

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

import numpy as np

from .combinatorics import sample_weights
from .complexes import build_complex, cusp_classes, euler_characteristic
from .errors import OutOfRange, check_settings
from .fiber import designated_pairs, invert_params
from .jsonio import SUITES
from .lorentz import ModelStack, build_models, dihedral_angles
from .moduli import planar_params, relative_residual

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


def _column(errors: list, values: list) -> list:
    """Per trial, the ``"Class: message"`` text of its failure, or its value."""
    return [values[i] if e is None else f"{type(e).__name__}: {e}" for i, e in enumerate(errors)]


def _row_max(errors: np.ndarray) -> list[float]:
    """Each row's largest entry, as Python's ``max`` picks it from the row."""
    return [max(row) for row in errors.tolist()]


def _roundtrip(n: int, theta: np.ndarray, tol: float) -> tuple[list, tuple]:
    """Per trial, the largest change of an angle over the forward map on
    the designated label pair (not the random word) and the inversion, or
    the failure of either; and the scan columns of the trials that mapped."""
    params, errors = designated_pairs(n, theta)
    mapped = [i for i, e in enumerate(errors) if e is None]
    back, _, _, failures = invert_params(n, params[mapped], tol)
    values = [0.0] * len(theta)
    for i, e, error in zip(mapped, failures, _row_max(np.abs(theta[mapped] - back))):
        errors[i], values[i] = e, error
    return _column(errors, values), (mapped, theta[mapped], params[mapped])


def _orthogonality(models: ModelStack) -> list:
    """Per trial, the largest departure from pi/2 of its always-orthogonal
    facet pairs, or its first failure in pair order."""
    pairs, rows = ORTHOGONAL_PAIRS[models.facet_mat.shape[1]], len(models.words)
    entries = np.arange(rows).repeat(len(pairs)), pairs * rows
    angles, errors = dihedral_angles(models.gram, models.facet_mat, models.model_errors, *entries)
    per_row = (errors[i : i + len(pairs)] for i in range(0, len(errors), len(pairs)))
    first = [next(filter(None, row), None) for row in per_row]
    return _column(first, _row_max(np.abs(angles - _RIGHT_ANGLE).reshape(rows, -1)))


@np.errstate(all="ignore")  # a failed row's values go unread
def _crossroute(models: ModelStack) -> list:
    """Per trial, the largest linear relative residual between the planar
    parameters and the axis intercepts, or the failure of either: the
    squared scale of moduli.scaled_residual would loosen this gate."""
    params, errors = planar_params(models.triangles)
    errors = [p or m or x for p, m, x in zip(errors, models.model_errors, models.intercept_errors)]
    return _column(errors, _row_max(relative_residual(params, models.intercepts)))


def _run_chunk(
    suites: tuple[str, ...], n: int, seed: int, tol: float, trials: range
) -> tuple[dict[str, list], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Deterministic trials of each suite; trial i's rng depends only on (seed, i).

    Returns each suite's outcomes, one per trial in order (its error, or
    its failure text), and the scan columns: the trial index, theta and
    designated-pair shape parameters of each trial whose pair mapped, so a
    trial whose inversion fails is still scanned.
    """
    rngs = [np.random.default_rng([seed, trial]) for trial in trials]
    theta = sample_weights(n, rngs)
    words = [tuple((rng.permutation(n) + 1).tolist()) for rng in rngs]
    models = build_models(theta, words) if set(suites) & set(_MODEL_SUITES) else None
    out, scan = {}, None
    if "roundtrip" in suites:
        out["roundtrip"], (mapped, thetas, params) = _roundtrip(n, theta, tol)
        scan = (np.array(trials)[mapped], thetas, params)
    # signature: building the model is the check, which fails with
    # SignatureMismatch unless the area form has signature (1, n-3)
    columns = {"orthogonality": _orthogonality, "crossroute": _crossroute,
               "signature": lambda models: _column(models.model_errors, [0.0] * len(trials))}
    out.update((suite, columns[suite](models)) for suite in suites if suite in columns)
    return {suite: out[suite] for suite in suites}, scan


def _separation_scan(
    trials: np.ndarray, thetas: np.ndarray, shapes: np.ndarray
) -> tuple[float | None, dict | None]:
    """Minimum pairwise Chebyshev distance of the scanned shape pairs.

    The columns hold the trial index, theta and shape parameters of each
    designated pair that mapped.  A collision, a counterexample to
    injectivity at sample scale, is the first pair (i, j) in trial order at
    distance 0 whose weight vectors differ by more than 1e-6; only a row
    whose own minimum is 0 is searched for one.  The inverse is a function
    of the shape row, so both trials of a collision recover one theta, and
    one of them has a roundtrip error above 5e-7: at any ``tol`` below
    that, such as the default 1e-9, that trial already fails the report.
    """
    min_sep, collision = math.inf, None
    for i in range(len(shapes)):
        sep = np.abs(shapes[i + 1 :] - shapes[i]).max(axis=1)
        if sep.size:
            low = float(sep.min())
            min_sep = min(min_sep, low)
            if low == 0.0 and collision is None:
                zero = np.flatnonzero(sep == 0.0) + i + 1
                theta_sep = np.abs(thetas[zero] - thetas[i]).max(axis=1)
                far = np.flatnonzero(theta_sep > 1e-6)
                if far.size:
                    trial_pair = [int(trials[i]), int(trials[zero[far[0]]])]
                    collision = {"trials": trial_pair, "theta_separation": float(theta_sep[far[0]])}
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
        expect("vertex_class_sizes", sorted({len(g) for g in complex_.vertex_classes}), [4])
        counts["vertex_classes"] = len(complex_.vertex_classes)
        counts["euler_characteristic"] = euler_characteristic(complex_)
        expect("euler_characteristic", counts["euler_characteristic"], -3)
    else:
        expect("cells", complex_.num_cells, 60)
        expect("pairings", complex_.num_pairings, 180)
        cusps = cusp_classes(complex_)
        counts["cusp_classes"] = cusps["classes"]
        expect("cusp_classes", cusps["classes"], 10)
        expect("cusp_incidences", sorted({row["incidences"] for row in cusps["table"]}), [18])
        partitions = [row["partition"] for row in cusps["table"]]
        expect("cusp_partitions", partitions, _all_triple_partitions())
    return _report("complex", n, samples, seed, tol, counts=counts, failures=failures)


def run_suite(
    suite: str, n: int, samples: int = 1000, seed: int = 0, tol: float = 1e-9, jobs: int = 1
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
