"""Randomized verification suites behind the command-line ``verify`` command.

This module is the one verification engine.  Every sampled suite is a
per-trial check; one pass over the trials (one pool or serial loop, ``all``
included) runs every requested check.  Trial i draws its weight vector and
a random label word once, from ``numpy.random.default_rng([seed, i])``.
Trials run in chunks of ``TRIAL_CHUNK``: one stacked Lorentz kernel call
builds the chunk's models and one maps the chunk forward on the designated
label pair, and every row of a stacked call is computed as it would be
alone.  Reports are deterministic for a fixed (n, samples, seed, tol) and
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
from dataclasses import astuple, dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import Callable

import numpy as np

from .combinatorics import WeightVector, sample_weight_rng
from .complexes import build_complex, cusp_classes, euler_characteristic
from .errors import OutOfRange, PolymodError
from .fiber import DESIGNATED, inversion_report
from .lorentz import LorentzModel, ModelStack, build_models, dihedral_angle
from .moduli import forward_shapes, planar_shape

SUITES = ("roundtrip", "orthogonality", "signature", "crossroute", "complex", "all")

#: facet pairs that meet at right angles for every weight vector and label
ORTHOGONAL_PAIRS = {
    5: ((1, 3), (2, 4), (3, 5), (4, 1), (5, 2)),
    6: ((1, 4), (2, 5), (3, 6), (1, 3), (3, 5), (5, 1), (2, 4), (4, 6), (6, 2)),
}

_RIGHT_ANGLE = math.pi / 2.0

#: Trials per pool task.  A task draws its trials, then makes at most two
#: stacked Lorentz kernel calls for all of them.
TRIAL_CHUNK = 64

#: Suites that read the trial's own Lorentz model.
_MODEL_SUITES = ("orthogonality", "signature", "crossroute")


@dataclass(frozen=True)
class _Trial:
    """One trial's draw and its rows of its chunk's two kernel calls.

    ``model``, ``intercepts()`` and ``forward()`` give the row's value or
    raise the failure recorded for it, so every suite that reads a row
    records the same failure.
    """

    theta: WeightVector
    word: tuple[int, ...]
    models: ModelStack | None  # the chunk's trial models, row ``row``
    row: int
    pair: tuple | PolymodError  # the designated-pair shapes, or psi's first failure

    @cached_property
    def model(self) -> LorentzModel:
        # a raising row is not cached, so each suite records its failure
        return self.models.model(self.row)

    def intercepts(self) -> tuple[float, ...]:
        return self.models.axis_intercepts(self.row)

    def forward(self) -> tuple:
        if isinstance(self.pair, PolymodError):
            raise self.pair
        return self.pair


# A per-trial check fills ``result`` with an ``error`` (compared against tol)
# or a ``failure`` message, or raises; the runner turns an exception into a
# ``failure`` entry.
Check = Callable[[dict, _Trial, float], None]


def _roundtrip_trial(result: dict, trial: _Trial, tol: float) -> None:
    # The designated label pair, not the random word, determines theta.
    theta = trial.theta
    s1, s2 = trial.forward()
    # Recorded before inverting, so a trial whose inversion fails is still scanned.
    result["theta"], result["shapes"] = theta.theta, astuple(s1) + astuple(s2)
    back = inversion_report(theta.n, s1, s2, tol)["theta"]
    result["error"] = max(abs(a - b) for a, b in zip(theta.theta, back.theta))


def _orthogonality_trial(result: dict, trial: _Trial, tol: float) -> None:
    result["error"] = max(
        abs(dihedral_angle(trial.model, j, k) - _RIGHT_ANGLE)
        for j, k in ORTHOGONAL_PAIRS[trial.theta.n]
    )


def _signature_trial(result: dict, trial: _Trial, tol: float) -> None:
    # building the model is the check: it raises SignatureMismatch unless
    # the area form has signature (1, n-3)
    trial.model  # noqa: B018
    result["error"] = 0.0


def _crossroute_trial(result: dict, trial: _Trial, tol: float) -> None:
    planar = astuple(planar_shape(trial.theta, trial.word))
    lorentz = trial.intercepts()
    # Linear scale, unlike moduli.scaled_residual's squared one: squaring it
    # would loosen this gate, so the two rules stay apart until one
    # derivation is settled for both.
    result["error"] = max(
        abs(a - b) / max(1.0, abs(a), abs(b)) for a, b in zip(planar, lorentz)
    )


_TRIALS: dict[str, Check] = {
    "roundtrip": _roundtrip_trial,
    "orthogonality": _orthogonality_trial,
    "signature": _signature_trial,
    "crossroute": _crossroute_trial,
}


def _run_chunk(
    suites: tuple[str, ...], n: int, seed: int, tol: float, trials: range
) -> list[dict]:
    """Deterministic trials of each suite; trial i's rng depends only on (seed, i).

    One kernel call builds every trial's model (when a suite reads it) and
    one maps every trial forward on the designated label pair (roundtrip).
    """
    thetas, words = [], []
    for trial in trials:
        rng = np.random.default_rng([seed, trial])
        thetas.append(sample_weight_rng(n, rng))
        words.append(tuple(int(m) + 1 for m in rng.permutation(n)))
    models = build_models(thetas, words) if set(suites) & set(_MODEL_SUITES) else None
    pairs: list = [()] * len(thetas)
    if "roundtrip" in suites:
        designated = DESIGNATED[n]
        shapes = forward_shapes(
            n, [theta for theta in thetas for _ in designated], list(designated) * len(thetas)
        )
        pairs = []
        for k in range(len(thetas)):
            pair = shapes[2 * k : 2 * k + 2]
            failures = [s for s in pair if isinstance(s, PolymodError)]
            # psi's first failure in word order, as two psi calls would raise it
            pairs.append(failures[0] if failures else tuple(pair))

    rows = []
    for k, trial in enumerate(trials):
        row = _Trial(thetas[k], words[k], models, k, pairs[k])
        results = {}
        for suite in suites:
            result = results[suite] = {"trial": trial}
            try:
                _TRIALS[suite](result, row, tol)
            except Exception as exc:  # failures are data, not crashes
                result["failure"] = f"{type(exc).__name__}: {exc}"
        rows.append(results)
    return rows


def _separation_scan(results: list[dict]) -> tuple[float | None, dict | None]:
    """Minimum pairwise Chebyshev distance of the recorded shape pairs.

    A zero distance between trials whose weight vectors differ is a
    collision, a counterexample to injectivity at sample scale.
    """
    scanned = [res for res in results if "shapes" in res]
    trials = [res["trial"] for res in scanned]
    shapes = np.array([res["shapes"] for res in scanned])
    thetas = np.array([res["theta"] for res in scanned])
    min_sep = math.inf
    collision = None
    for i in range(len(scanned)):
        sep = np.abs(shapes[i + 1 :] - shapes[i]).max(axis=1)
        if sep.size:
            j = int(np.argmin(sep))
            if float(sep[j]) < min_sep:
                min_sep = float(sep[j])
                theta_sep = float(np.abs(thetas[i + 1 + j] - thetas[i]).max())
                if min_sep == 0.0 and theta_sep > 1e-6:
                    collision = {
                        "trials": [trials[i], trials[i + 1 + j]],
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
    rows = [row for chunk in done for row in chunk]

    reports = {}
    for suite in suites:
        results = [row[suite] for row in rows]
        failures = []
        errors = []
        for res in results:
            if "failure" in res:
                failures.append({"trial": res["trial"], "failure": res["failure"]})
                continue
            errors.append(res["error"])
            if res["error"] > tol:
                failures.append({"trial": res["trial"], "error": res["error"]})
        extra = {"max_error": max(errors) if errors else None}
        if suite == "roundtrip":
            extra["min_shape_separation"], collision = _separation_scan(results)
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
    if samples < 1:
        raise OutOfRange(f"samples must be positive, got {samples}")
    if seed < 0:
        raise OutOfRange(f"seed must be non-negative, got {seed}")
    if suite == "complex":
        return _run_complex(n, samples, seed, tol)
    if suite != "all":
        return _run_sampled((suite,), n, samples, seed, tol, jobs)[suite]

    reports = _run_sampled(tuple(_TRIALS), n, samples, seed, tol, jobs)
    reports["complex"] = _run_complex(n, samples, seed, tol)
    doc = _report("all", n, samples, seed, tol, reports=reports)
    doc["pass"] = all(rep["pass"] for rep in reports.values())
    return doc
