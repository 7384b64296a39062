"""Randomized verification suites behind the command-line ``verify`` command.

This module is the one verification engine: one pass over the trials (one
pool or serial loop, ``all`` included) runs every requested suite.  Trial
i's weight vector and random label word are pure functions of (seed, i):
Philox4x64-10 blocks at the counters (i, attempt, slot, 0) under the key
seed, computed here in numpy, so no generator object and no
``numpy.random`` is involved.  Trials run in one chunk per worker, of at
most ``TRIAL_CHUNK`` trials, and every sampled suite is computed on the
chunk's columns: a few Philox calls draw the chunk's weight vectors and
words, one Lorentz kernel call builds the models and completion
triangles, one pairing call gives every model's dihedral angles, one
forward call maps the chunk on the designated label pair and one column
inverse inverts its shape pairs.  Every row of a stacked call is computed
as it would be alone, or holds its failure.  Outcomes are columns too: per
suite, a float64 error per trial and a sparse map of each failed trial to
its failure's class and message.  The separation scan reads the trial
index and shape parameters of each designated pair that mapped; a
collision draws its thetas again.  Reports are deterministic for a fixed
(n, samples, seed, tol) and byte-identical across runs and across worker
counts.  Suites:

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
from collections import Counter
from functools import partial, reduce
from itertools import combinations
from typing import Callable

import numpy as np

from . import combinatorics
from .combinatorics import validate_weights
from .complexes import build_complex, cusp_classes, euler_characteristic
from .errors import OutOfRange, RejectionBudgetExceeded, check_settings
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

#: The most trials in one chunk.  A chunk draws its trials, then builds
#: their models, maps them forward and inverts them with one stacked call
#: each; a run has one chunk per worker, or more where that would exceed this.
TRIAL_CHUNK = 256

#: The sampled suites, in report order, and those that read the trial's own
#: Lorentz model.
_SAMPLED = ("roundtrip", "orthogonality", "signature", "crossroute")
_MODEL_SUITES = _SAMPLED[1:]


def _roundtrip(n: int, theta: np.ndarray, tol: float) -> tuple[list, np.ndarray, tuple]:
    """Per trial, the failure of the forward map on the designated label
    pair (not the random word) or of the inversion, and the largest change
    of an angle over both; and the rows and parameters of those that mapped."""
    params, errors = designated_pairs(n, theta)
    mapped = [i for i, e in enumerate(errors) if e is None]
    back, _, _, failures = invert_params(n, params[mapped], tol)
    for i, e in zip(mapped, failures):
        errors[i] = e
    values = np.zeros(len(theta))
    values[mapped] = np.abs(theta[mapped] - back).max(axis=1)
    return errors, values, (mapped, params[mapped])


def _orthogonality(models: ModelStack) -> tuple[list, np.ndarray]:
    """Per trial, its first failure in pair order, and the largest
    departure from pi/2 of its always-orthogonal facet pairs."""
    pairs, rows = ORTHOGONAL_PAIRS[models.facet_mat.shape[1]], len(models.model_errors)
    entries = np.arange(rows).repeat(len(pairs)), pairs * rows
    angles, errors = dihedral_angles(models.gram, models.facet_mat, models.model_errors, *entries)
    per_row = (errors[i : i + len(pairs)] for i in range(0, len(errors), len(pairs)))
    first = [next(filter(None, row), None) for row in per_row]
    return first, np.abs(angles - _RIGHT_ANGLE).reshape(rows, -1).max(axis=1)


@np.errstate(all="ignore")  # a failed row's values go unread
def _crossroute(models: ModelStack) -> tuple[list, np.ndarray]:
    """Per trial, the failure of the planar parameters or the axis
    intercepts, and the largest linear relative residual between them: the
    squared scale of moduli.scaled_residual would loosen this gate."""
    params, errors = planar_params(models.triangles)
    errors = [p or m for p, m in zip(errors, models.model_errors)]
    return errors, relative_residual(params, models.intercepts).max(axis=1)


_u64 = partial(np.array, dtype=np.uint64)

#: Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC 2011): its round
#: multipliers with their 32-bit halves, and its key increments.
_PHILOX_M = [[_u64(v) for v in (m, m & 0xFFFFFFFF, m >> 32)]
             for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)]
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW, _HALF, _TOP53 = _u64(0xFFFFFFFF), _u64(32), _u64(11)

#: The first counter slot of the label words; weight attempts use slots 0 up.
_WORD_SLOT = 1 << 32

#: Attempts per trial not yet accepted in a sampler's first round; each
#: later round draws twice as many.
_ATTEMPTS = 16


def _mulhilo(a: np.ndarray, m, m_lo, m_hi) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of each 128-bit product a * m, the high word
    summed exactly from products of 32-bit halves."""
    a_lo, a_hi = a & _LOW, a >> _HALF
    cross = a_lo * m_hi
    mid = a_hi * m_lo + ((a_lo * m_lo) >> _HALF) + (cross & _LOW)
    return a_hi * m_hi + (cross >> _HALF) + (mid >> _HALF), a * m


def _philox(seed: int, x0, x1, x2, x3) -> tuple[np.ndarray, ...]:
    """The Philox4x64-10 block of each counter (x0, x1, x2, x3), uint64
    arrays that broadcast together, under the key (seed mod 2**64, seed >>
    64).  Arrays wrap mod 2**64 silently, numpy's uint64 scalars with a
    warning, so the round keys are Python ints."""
    k0, k1 = seed % 2**64, seed >> 64
    for _ in range(10):
        (h0, l0), (h1, l1) = _mulhilo(x0, *_PHILOX_M[0]), _mulhilo(x2, *_PHILOX_M[1])
        x0, x1, x2, x3 = h1 ^ (x1 ^ _u64(k0)), l1, h0 ^ (x3 ^ _u64(k1)), l0
        k0, k1 = (k0 + _PHILOX_W[0]) % 2**64, (k1 + _PHILOX_W[1]) % 2**64
    return x0, x1, x2, x3


def _words(seed: int, trials, attempts, slot: int, count: int) -> list[np.ndarray]:
    """Per j < count, the (trials, attempts) array of word j % 4 of the
    blocks at the counters (trial, attempt, slot + j // 4, 0)."""
    slots = slot + np.arange(-(-count // 4), dtype=np.uint64)
    lanes = _philox(seed, _u64(trials)[:, None], _u64(attempts), slots[:, None, None], _u64(0))
    return [lanes[j % 4][j // 4] for j in range(count)]


def _attempts(n: int, seed: int, trials, attempts) -> list[np.ndarray]:
    """The n angles of each (trial, attempt), as n (trials, attempts)
    arrays: a flat Dirichlet draw, the spacings of the n - 1 sorted uniforms
    (w >> 11) * 2**-53 of its words on [0, 1], scaled by 2*pi."""
    u = _words(seed, trials, attempts, 0, n - 1)
    for i in range(n - 1):  # odd-even transposition, a sorting network
        for j in range(i % 2, n - 2, 2):
            u[j], u[j + 1] = np.minimum(u[j], u[j + 1]), np.maximum(u[j], u[j + 1])
    edges = [0.0, *((w >> _TOP53).astype(float) * 2.0**-53 for w in u), 1.0]
    return [2.0 * math.pi * (b - a) for a, b in zip(edges, edges[1:])]


def _draw(n: int, seed: int, trials) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Each trial's (N, n) angles and label word, pure functions of (seed,
    trial): its first attempt in counter order whose angles are positive and
    whose largest pair sum is below pi by a margin that keeps the rescaling
    off the boundary, and a stable argsort of n words at ``_WORD_SLOT``, plus
    1.  A round tests the next attempts of the trials not yet accepted
    elementwise, so no vector depends on the rounds.  The first trial to
    spend ``REJECTION_BUDGET`` attempts raises RejectionBudgetExceeded."""
    if n < 4:
        raise OutOfRange(f"need n >= 4, got {n}")
    budget, trials = combinatorics.REJECTION_BUDGET, np.asarray(trials)
    raw, pending, start, size = np.zeros((len(trials), n)), np.arange(len(trials)), 0, _ATTEMPTS
    while len(pending) and start < budget:
        size = min(size, budget - start)
        theta = _attempts(n, seed, trials[pending], np.arange(start, start + size))
        top = reduce(np.maximum, (a + b for a, b in combinations(theta, 2)))
        ok = (reduce(np.minimum, theta) > 0.0) & (top < math.pi - 1e-12)
        hit = ok.any(axis=1).nonzero()[0]
        first = ok[hit].argmax(axis=1)
        raw[pending[hit]] = np.stack([t[hit, first] for t in theta], axis=1)
        pending, start, size = np.delete(pending, hit), start + size, 2 * size
    if len(pending):
        raise RejectionBudgetExceeded(f"no valid weight vector for n={n} in {budget} attempts")
    angles, _ = validate_weights(raw)  # no clause fails on accepted spacings: it rescales
    words = np.stack([w[:, 0] for w in _words(seed, trials, [0], _WORD_SLOT, n)], axis=1)
    return angles, [tuple(w) for w in (np.argsort(words, axis=1, kind="stable") + 1).tolist()]


def _run_chunk(
    suites: tuple[str, ...], n: int, seed: int, tol: float, trials: range
) -> tuple[dict[str, tuple[np.ndarray, dict]], tuple[np.ndarray, np.ndarray]]:
    """Deterministic trials of each suite; trial i depends only on (seed, i).

    Returns each suite's outcome columns: its float64 error per trial in
    order (a failed trial's is meaningless) and its ``{trial: (class,
    message)}`` failures; and the scan columns: the trial index and
    designated-pair shape parameters of each trial whose pair mapped, so a
    trial whose inversion fails is still scanned.
    """
    theta, words = _draw(n, seed, trials)
    models = build_models(theta, words) if set(suites) & set(_MODEL_SUITES) else None
    out, scan = {}, None
    if "roundtrip" in suites:
        *out["roundtrip"], (mapped, params) = _roundtrip(n, theta, tol)
        scan = (np.array(trials)[mapped], params)
    # signature: building the model is the check, which fails with
    # SignatureMismatch unless the area form has signature (1, n-3)
    columns = {"orthogonality": _orthogonality, "crossroute": _crossroute,
               "signature": lambda models: (models.model_errors, np.zeros(len(trials)))}
    out.update((suite, columns[suite](models)) for suite in suites if suite in columns)
    return {s: (out[s][1], {t: (type(e).__name__, str(e)) for t, e in zip(trials, out[s][0]) if e})
            for s in suites}, scan


#: Candidate pairs the grid scan measures at once, which bounds its memory.
_SCAN_BLOCK = 1 << 17


def _separation_scan(
    trials: np.ndarray, shapes: np.ndarray, thetas: Callable[[np.ndarray], np.ndarray]
) -> tuple[float | None, dict | None]:
    """Minimum pairwise Chebyshev distance of the scanned shape pairs, and
    the first collision.

    The columns hold the trial index and shape parameters of each
    designated pair that mapped, so every shape row is finite; ``thetas``
    gives the (k, n) weight vectors of k trial indices.  The
    minimum is bit for bit that over all N(N-1)/2 pairs: h, the least
    distance from a row to its next four along one sorted coordinate,
    bounds it from above, so the closest pair is within h on every
    coordinate, and :func:`_grid_pairs` finds it on the three coordinates
    of widest interquartile range.  A coordinate equal to a chosen one on
    half the rows or more (at n=6 the two words' R mostly agree) separates
    nothing and is passed over.  ``|a - b|`` and ``max`` are exact, so the
    order in which pairs are measured cannot change the minimum.

    A collision, a counterexample to injectivity at sample scale, is the
    first pair (i, j) in trial order at distance 0 whose weight vectors
    differ by more than 1e-6; it is searched for only when the minimum is
    0.  The inverse is a function of the shape row, so both trials of a
    collision recover one theta, and one of them has a roundtrip error
    above 5e-7: at any ``tol`` below that, such as the default 1e-9, that
    trial already fails the report.
    """
    rows = len(shapes)
    if rows < 2:
        return None, None
    columns, ranks = shapes.T, [(rows - 1) // 4, 3 * (rows - 1) // 4]
    # quartiles from one partition per column, without np.percentile's start-up
    quartiles = [np.partition(column, ranks)[ranks] for column in columns]
    axes = []
    for c in np.argsort([q1 - q3 for q1, q3 in quartiles], kind="stable"):
        copies = (2 * np.count_nonzero(columns[c] == columns[a]) >= rows for a in axes)
        if len(axes) < 3 and not any(copies):
            axes.append(c)
    # one gap row per offset k: the rows sorted on the first axis, each
    # row's distance to the row k later, filled a column at a time
    order = np.argsort(columns[axes[0]], kind="stable")
    gaps = [np.zeros(rows - k) for k in range(1, min(rows, 5))]
    for column in columns:
        column = column[order]
        for k, gap in enumerate(gaps, start=1):
            np.maximum(gap, np.abs(column[k:] - column[:-k]), out=gap)
    low = min(float(gap.min()) for gap in gaps)
    del order, gaps, column  # before the grid's own columns
    if low > 0.0:
        for i, j in _grid_pairs([columns[c] for c in axes], low):
            low = min(low, float(np.abs(shapes[i] - shapes[j]).max(axis=1).min()))
    return low, (_first_collision(trials, shapes, thetas) if low == 0.0 else None)


def _grid_pairs(columns, h: float):
    """Blocks (i, j) of row indices of k <= 3 columns of N >= 1 finite
    coordinates whose differences are finite: every pair of rows within h
    of each other on each coordinate appears in one block, once, with
    some pairs further apart, and a block holds at most ``_SCAN_BLOCK``
    pairs or the pairs of one row.

    A grid scan: the rows are bucketed in cubic cells of side just over h,
    and each row is paired with the later rows of its cell and the rows of
    13 of its 26 neighbour cells, which meets every pair of adjacent cells
    once; sorted by cell, those rows are five runs, taken one at a time.
    """
    rows = len(columns[0])
    # A pair within h lands in cells at most one apart: the side leaves a
    # margin of 2**-20 for the rounding of (x - lo) / side, whose error
    # stays below 2**-31 while a coordinate spans at most 2**20 cells; a
    # side of at least 2**-1000 keeps that margin out of the subnormals.
    span = max(float(column.max() - column.min()) for column in columns)
    side = max(h * (1.0 + 2.0**-20), span * 2.0**-20, 2.0**-1000)
    # the cell key, one coordinate at a time; a missing coordinate is one
    # layer, and one empty index past each coordinate's last means a step
    # of -1 or +1 on one coordinate never lands in an occupied cell of another
    key, sizes = 0, []
    for column in [*columns, *[np.zeros(1)] * (3 - len(columns))]:
        cell = np.floor((column - column.min()) / side).astype(np.int64)
        sizes.append(int(cell.max()) + 2)
        key = key * sizes[-1] + cell
    del cell
    _, across, along = sizes
    order = np.argsort(key, kind="stable")
    key = key[order]
    # per row, five runs of sorted positions: the later rows of its cell
    # with the next cell on the third coordinate, then for each of four
    # cells on the first two, three cells on the third
    for step in (0, *(along * (across * a + b) for a, b in ((0, 1), (1, -1), (1, 0), (1, 1)))):
        first = np.searchsorted(key, key + step - 1, "left") if step else np.arange(1, rows + 1)
        count = np.searchsorted(key, key + step + 1, "right") - first
        done = np.cumsum(count)
        r0 = 0
        while r0 < rows:
            r1 = max(r0 + 1, int(np.searchsorted(done, done[r0] - count[r0] + _SCAN_BLOCK, "right")))
            c = count[r0:r1]
            total = int(c.sum())
            if total:
                at = np.repeat(first[r0:r1] - (np.cumsum(c) - c), c) + np.arange(total)
                yield order[np.repeat(np.arange(r0, r1), c)], order[at]
            r0 = r1


def _first_collision(trials: np.ndarray, shapes: np.ndarray, thetas: Callable) -> dict | None:
    """The first pair (i, j) in trial order of equal shape rows whose
    thetas differ by more than 1e-6, as the report's collision entry, or
    None.  Sorting the rows makes each group of equal rows one run."""
    order = np.lexsort(shapes.T[::-1])
    equal = (shapes[order[1:]] == shapes[order[:-1]]).all(axis=1)
    starts = np.flatnonzero(np.concatenate([[True], ~equal]))
    stops = np.append(starts[1:], len(order))
    found = []  # per group, its first such pair
    for a, b in zip(starts[stops - starts > 1], stops[stops - starts > 1]):
        members = np.sort(order[a:b])
        group = thetas(trials[members])
        for k, i in enumerate(members[:-1]):
            theta_sep = np.abs(group[k + 1 :] - group[k]).max(axis=1)
            far = np.flatnonzero(theta_sep > 1e-6)
            if far.size:
                found.append((i, members[k + 1 + far[0]], float(theta_sep[far[0]])))
                break
    if not found:
        return None
    i, j, theta_sep = min(found)
    return {"trials": [int(trials[i]), int(trials[j])], "theta_separation": theta_sep}


def _run_sampled(
    suites: tuple[str, ...], n: int, samples: int, seed: int, tol: float, jobs: int
) -> dict[str, dict]:
    """One pass over the trials, split into one report per suite."""
    run = partial(_run_chunk, suites, n, seed, tol)
    # The pool starts all its workers at once: never more than the cores.
    workers = min(jobs, os.cpu_count() or 1)
    size = min(TRIAL_CHUNK, -(-samples // workers))
    chunks = [range(i, min(i + size, samples)) for i in range(0, samples, size)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, chunks))
    else:
        done = [run(chunk) for chunk in chunks]

    reports = {}
    for suite in suites:
        # chunks cover the trials in order, so a trial is its position
        errors = np.concatenate([columns[suite][0] for columns, _ in done])
        failed = {t: f for columns, _ in done for t, f in columns[suite][1].items()}
        errors[list(failed)] = -math.inf  # a failure is never above tol, nor the worst
        above = np.flatnonzero(errors > tol).tolist()
        worst = int(errors.argmax()) if len(failed) < samples else None  # the first on ties
        extra = {"max_error": None if worst is None else float(errors[worst]), "worst_trial": worst}
        failures = [{"trial": t, "failure": ": ".join(failed[t])} if t in failed else
                    {"trial": t, "error": float(errors[t])} for t in sorted([*failed, *above])]
        classes = Counter(cls for cls, _ in failed.values()) + Counter(above_tol=len(above))
        if suite == "roundtrip":
            scan = (np.concatenate(column) for column in zip(*(cols for _, cols in done)))
            extra["min_shape_separation"], collision = _separation_scan(
                *scan, lambda trials: _draw(n, seed, trials)[0])
            if collision is not None:
                failures.append({"collision": collision})
                classes["collision"] += 1
        reports[suite] = _report(suite, n, samples, seed, tol, **extra, failures=failures,
                                 failure_classes=dict(classes))
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
    tol, samples, seed, jobs = check_settings(tol, samples, seed, jobs)
    if suite == "complex":
        return _run_complex(n, samples, seed, tol)
    if suite != "all":
        return _run_sampled((suite,), n, samples, seed, tol, jobs)[suite]

    reports = _run_sampled(_SAMPLED, n, samples, seed, tol, jobs)
    reports["complex"] = _run_complex(n, samples, seed, tol)
    doc = _report("all", n, samples, seed, tol, reports=reports)
    doc["pass"] = all(rep["pass"] for rep in reports.values())
    return doc
