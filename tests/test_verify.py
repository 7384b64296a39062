"""Tests for the verification engine behind ``polymod verify``."""

import concurrent.futures
import hashlib
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymod import (
    SUITES,
    InconsistentPair,
    OutOfRange,
    SignatureMismatch,
    dumps_canonical,
    run_suite,
    verify,
    verify_injectivity,
)
from polymod import cli

import scan_oracle

#: The first 12 hex digits of sha256(stdout + stderr + "exit=<code>\n") of
#: ``verify --suite all`` at n=5 (150 samples) and n=6 (190 samples), per seed.
VERIFY_HASHES = {
    (5, 0): "908595996de1", (5, 3): "3114bafa7dc4", (5, 11): "e605ae68ccdc", (5, 7919): "21d9f208d1b7",
    (6, 0): "7bcfde92bdad", (6, 3): "3a7b5f99c9df", (6, 11): "336f0bd0ace8", (6, 7919): "a86b040f9fc1",
}


@pytest.mark.parametrize(
    "n, seed, jobs, chunk",
    [pytest.param(n, seed, jobs, chunk, id=f"{n}-{seed}" + ("" if jobs == 1 else f"-jobs{jobs}")
                  + ("" if chunk is None else f"-chunk{chunk}"))
     for chunk in (None, 64) for jobs in (1, 2) for n, seed in VERIFY_HASHES],
)
def test_the_recorded_verify_reports_keep_their_bytes(capsys, monkeypatch, n, seed, jobs, chunk):
    """The eight recorded ``verify --suite all`` commands, run in process
    serially and through the pool, print the bytes they printed when
    recorded.  Their 150 and 190 samples make one chunk per worker at
    ``TRIAL_CHUNK``, and at a ``TRIAL_CHUNK`` of 64 three chunks, the last
    one partial."""
    if chunk is not None:
        monkeypatch.setattr(verify, "TRIAL_CHUNK", chunk)
    samples = {5: 150, 6: 190}[n]
    argv = ["verify", "--suite", "all", "--n", str(n), "--samples", str(samples), "--seed", str(seed)]
    code = cli.main([*argv, "--jobs", str(jobs)])
    out, err = capsys.readouterr()
    assert hashlib.sha256(f"{out}{err}exit={code}\n".encode()).hexdigest()[:12] == VERIFY_HASHES[n, seed]


@pytest.mark.parametrize(
    "suite, bad",
    [pytest.param(suite, {"samples": 0}, id=suite) for suite in SUITES]
    + [pytest.param(suite, {"seed": -1}, id=f"{suite}-seed") for suite in SUITES],
)
def test_samples_must_be_positive(suite, bad):
    """A count below one, or a negative seed, is rejected before any trial runs."""
    with pytest.raises(OutOfRange):
        run_suite(suite, 5, **bad)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n", [5, 6])
def test_all_holds_each_suite_report(n, jobs):
    reports = run_suite("all", n, 24, 5, jobs=jobs)["reports"]
    assert list(reports) == [name for name in SUITES if name != "all"]
    for name, report in reports.items():
        assert report == run_suite(name, n, 24, 5, jobs=jobs)


@pytest.mark.parametrize("n", [5, 6])
def test_all_draws_and_builds_once_per_trial(monkeypatch, n):
    """Each trial is drawn once, by one sampler call per chunk; its model is
    one row of one kernel call, and each chunk inverts its shape pairs in
    one column call."""
    calls = {"_draw": 0, "drawn": 0, "build_models": 0, "invert_params": 0, "inverted": 0}
    draw, build, invert = verify._draw, verify.build_models, verify.invert_params

    def _draw(n, seed, trials):
        calls["_draw"] += 1
        calls["drawn"] += len(trials)
        return draw(n, seed, trials)

    def build_models(thetas, words):
        calls["build_models"] += len(thetas)
        return build(thetas, words)

    def invert_params(n, pairs, tol):
        calls["invert_params"] += 1
        calls["inverted"] += len(pairs)
        return invert(n, pairs, tol)

    monkeypatch.setattr(verify, "_draw", _draw)
    monkeypatch.setattr(verify, "build_models", build_models)
    monkeypatch.setattr(verify, "invert_params", invert_params)
    monkeypatch.setattr(verify, "TRIAL_CHUNK", 4)  # chunks of 4, 4 and 2 trials
    assert run_suite("all", n, 10, 2, jobs=1)["pass"]
    assert calls == {
        "_draw": 3, "drawn": 10, "build_models": 10, "invert_params": 3, "inverted": 10,
    }


@pytest.fixture
def serial_pool(monkeypatch):
    """The worker counts that runs ask the pool for; the pool maps in this
    process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_the_pool_has_no_more_workers_than_cores(monkeypatch, serial_pool):
    sizes = serial_pool
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = run_suite("all", 5, 6, 1, jobs=1)
    assert sizes == []
    assert run_suite("all", 5, 6, 1, jobs=100_000) == serial
    assert run_suite("all", 5, 6, 1, jobs=2) == serial
    assert sizes == [3, 2]


@pytest.mark.parametrize("jobs, chunks", [(1, [range(0, 150)]), (2, [range(0, 75), range(75, 150)])])
def test_a_run_has_one_chunk_per_worker(monkeypatch, serial_pool, jobs, chunks):
    """150 samples, as the recorded n=5 reports have, at ``--jobs 1`` and 2."""
    ran, run_chunk = [], verify._run_chunk

    def recorded(suites, n, seed, tol, trials):
        ran.append(trials)
        return run_chunk(suites, n, seed, tol, trials)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "_run_chunk", recorded)
    run_suite("roundtrip", 5, 150, 0, jobs=jobs)
    assert ran == chunks
    assert serial_pool == ([] if jobs == 1 else [2])


@pytest.mark.parametrize("n", [5, 6])
def test_a_trial_that_did_not_fail_has_a_finite_error(n):
    """The reports read each suite's largest error with numpy, where a NaN
    would be the maximum that Python's ``max`` can pass over: every trial
    that did not fail has a finite error.  Each suite's gates fail a row
    whose values are not finite."""
    outcomes, _ = verify._run_chunk(verify._SAMPLED, n, 3, 1e-9, range(600))
    for errors, failed in outcomes.values():
        assert np.isfinite(np.delete(errors, list(failed))).all()


def planted_roundtrip(samples=150, seed=3):
    """``roundtrip`` at tol 1e-300: each trial fails its forward check
    (InconsistentPair) or has an error above tol."""
    return run_suite("roundtrip", 5, samples, seed, tol=1e-300)


def test_a_planted_failure_names_its_worst_trial_and_counts_its_classes():
    report = planted_roundtrip()
    failures = report["failures"]
    classes = Counter(f["failure"].split(":")[0] if "failure" in f else "above_tol" for f in failures)
    assert report["failure_classes"] == dict(classes)
    assert set(classes) == {"InconsistentPair", "above_tol"}
    errors = [(f["trial"], f["error"]) for f in failures if "error" in f]
    worst = report["worst_trial"]
    assert (worst, report["max_error"]) in errors
    assert all(e < report["max_error"] or t >= worst for t, e in errors)


@pytest.mark.parametrize("jobs, chunk", [(1, 64), (2, None), (2, 64)])
def test_the_report_fields_hold_across_jobs_and_chunks(monkeypatch, serial_pool, jobs, chunk):
    """The planted failures of every sampled suite, at ``--jobs`` 1 and 2
    and at ``TRIAL_CHUNK`` 256 and 64: the same reports, and the
    ``roundtrip`` report of ``all`` is that of ``roundtrip`` alone."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reference = run_suite("all", 5, 150, 3, tol=1e-300)
    if chunk is not None:
        monkeypatch.setattr(verify, "TRIAL_CHUNK", chunk)
    assert run_suite("all", 5, 150, 3, tol=1e-300, jobs=jobs) == reference
    assert reference["reports"]["roundtrip"] == planted_roundtrip()


def test_the_worst_trial_replays_from_its_seed():
    """The same seed with samples up to the worst trial draws that trial
    again: the same worst trial, error and failures."""
    report = planted_roundtrip()
    worst = report["worst_trial"]
    replay = planted_roundtrip(worst + 1)
    assert (replay["worst_trial"], replay["max_error"]) == (worst, report["max_error"])
    assert replay["failures"] == [f for f in report["failures"] if f["trial"] <= worst]


def test_ties_name_the_first_trial_and_no_error_names_none(monkeypatch):
    signature = run_suite("signature", 5, 20, 1)
    assert (signature["max_error"], signature["worst_trial"], signature["failure_classes"]) == (0.0, 0, {})
    invert = verify.invert_params

    def invert_params(n, pairs, tol):
        *columns, errors = invert(n, pairs, tol)
        return (*columns, [InconsistentPair("planted") for _ in errors])

    monkeypatch.setattr(verify, "invert_params", invert_params)
    report = run_suite("roundtrip", 5, 12, 4)
    assert (report["max_error"], report["worst_trial"]) == (None, None)
    assert report["failure_classes"] == {"InconsistentPair": 12}


@pytest.mark.parametrize("n", [5, 6])
def test_verify_injectivity_is_the_roundtrip_suite(n):
    suite = run_suite("roundtrip", n, 30, 11)
    for key in ("schema", "version", "suite"):
        del suite[key]
    assert verify_injectivity(n, 30, 11) == suite


@pytest.mark.parametrize(
    "rows, min_sep, collision",
    [
        pytest.param("ABA", 0.0, (0, 2), id="duplicate-with-distinct-theta"),
        pytest.param("AAB", 0.0, None, id="duplicate-with-equal-theta"),
        pytest.param("AAA", 0.0, (0, 2), id="hidden-behind-an-equal-theta-duplicate"),
        pytest.param("AABB", 0.0, (2, 3), id="hidden-in-a-later-row"),
        pytest.param("", None, None, id="no-rows"),
        pytest.param("A", None, None, id="one-row"),
    ],
)
def test_the_scan_reports_the_first_collision_in_trial_order(rows, min_sep, collision):
    """Planted duplicate shape rows: the first pair (i, j) in trial order at
    separation 0 whose thetas differ is the collision, even where an earlier
    zero pair shares its theta.  Equal letters are equal shapes; the first
    two rows share a theta and every later row has its own."""
    shape = {"A": [0.3, 0.6, 0.4, 0.7], "B": [0.5, 0.2, 0.8, 0.1]}
    trials = np.array([3, 7, 12, 20][: len(rows)])
    thetas = np.array([[1.0, 1.2, 1.3, 1.4, 1.0], [1.0, 1.2, 1.3, 1.4, 1.0],
                       [1.1, 1.2, 1.3, 1.3, 1.0], [0.9, 1.2, 1.3, 1.5, 1.0]])[: len(rows)]
    shapes = np.array([shape[r] for r in rows]).reshape(len(rows), 4)
    sep, found = verify._separation_scan(trials, shapes, planted(trials, thetas))
    assert sep == min_sep
    if collision is None:
        assert found is None
    else:
        i, j = collision
        theta_sep = float(np.abs(thetas[j] - thetas[i]).max())
        assert found == {"trials": [int(trials[i]), int(trials[j])], "theta_separation": theta_sep}


def planted(trials, thetas):
    """The scan's ``thetas`` for planted rows: trial ``trials[k]``, of the
    sorted ``trials``, has the angles ``thetas[k]``."""
    return lambda wanted: thetas[np.searchsorted(trials, wanted)]


@st.composite
def scan_columns(draw):
    """Scan columns of 0 to 3 rows or of a larger stack, n = 5 or 6.  The
    shape rows are drawn from a small pool, so rows repeat, and their
    values from a grid of multiples of one step half the time, so
    distances tie and rows sit on cell borders (exact multiples of h).  A
    column may be constant, or repeat another column on most rows, as the
    two words' R do at n = 6; the thetas of equal rows may or may not
    differ."""
    n = draw(st.sampled_from([5, 6]))
    d, rows = 2 * (n - 3), draw(st.one_of(st.integers(0, 3), st.integers(4, 120)))
    if draw(st.booleans()):
        step = draw(st.sampled_from([1.0, 0.1, 0.125, 3.0, 1e-7]))
        value = st.integers(0, 6).map(lambda k: k * step)
    else:
        value = st.floats(0.0, 50.0, allow_subnormal=False)
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=max(rows, 1)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
    shapes = np.array([pool[i] for i in picks]).reshape(rows, d)
    if rows and draw(st.booleans()):
        shapes[:, draw(st.integers(0, d - 1))] = draw(value)
    if rows and draw(st.booleans()):
        copy, to = draw(st.permutations(range(d)))[:2]
        most = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        shapes[most, to] = shapes[most, copy]
    thetas = 1.0 + 1e-6 * np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=rows * n,
                                                 max_size=rows * n))).reshape(rows, n)
    trials = np.array(sorted(draw(st.sets(st.integers(0, 10**6), min_size=rows, max_size=rows))))
    return trials, thetas, shapes


@given(scan_columns())
@settings(max_examples=300, deadline=None)
def test_the_grid_scan_is_the_quadratic_scan(columns):
    """The minimum bit for bit and the same collision as the O(N^2) scan."""
    trials, thetas, shapes = columns
    assert verify._separation_scan(trials, shapes, planted(trials, thetas)) == scan_oracle.separation_scan(*columns)


@st.composite
def grid_rows(draw):
    """1 to 40 rows of 1 to 3 coordinates on a grid of one step, and an h
    of a multiple of the step: rows sit on cell borders, and pairs exactly
    h apart abound, in every direction."""
    k, rows = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    step = draw(st.sampled_from([1.0, 0.1, 0.125, 3.0, 1e-7]))
    cells = draw(st.lists(st.integers(0, 20), min_size=rows * k, max_size=rows * k))
    h = step * draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 7.0]))
    return step * np.array(cells, dtype=float).reshape(rows, k), h


@given(grid_rows())
@settings(max_examples=300, deadline=None)
def test_the_grid_pairs_every_two_rows_within_h(case):
    coords, h = case
    pairs = [(min(p), max(p)) for i, j in verify._grid_pairs(coords.T, h) for p in zip(i.tolist(), j.tolist())]
    assert len(pairs) == len(set(pairs)) and all(i != j for i, j in pairs)
    rows = range(len(coords))
    close = {(i, j) for i in rows for j in rows if i < j and np.abs(coords[i] - coords[j]).max() <= h}
    assert close <= set(pairs)


@pytest.mark.parametrize("n", [5, 6])
def test_the_scan_in_small_blocks_is_the_quadratic_scan(monkeypatch, n):
    """Blocks of at most 5 pairs, or one row's pairs, on the scan columns of
    600 roundtrip trials."""
    _, (trials, shapes) = verify._run_chunk(("roundtrip",), n, 3, 1e-9, range(600))

    def redraw(wanted):
        return verify._draw(n, 3, wanted)[0]

    grid_pairs, blocks = verify._grid_pairs, []

    def recorded(coords, h):
        for i, j in grid_pairs(coords, h):
            blocks.append((len(i), len(set(i.tolist()))))
            yield i, j

    monkeypatch.setattr(verify, "_SCAN_BLOCK", 5)
    monkeypatch.setattr(verify, "_grid_pairs", recorded)
    oracle = scan_oracle.separation_scan(trials, redraw(trials), shapes)
    assert verify._separation_scan(trials, shapes, redraw) == oracle
    assert len(blocks) > 10 and all(size <= 5 or rows == 1 for size, rows in blocks)


def test_failed_inversions_still_enter_the_scan(monkeypatch):
    clean = run_suite("roundtrip", 5, 12, 4)

    invert = verify.invert_params

    def invert_params(n, pairs, tol):
        *columns, errors = invert(n, pairs, tol)
        return (*columns, [InconsistentPair("planted") for _ in errors])

    monkeypatch.setattr(verify, "invert_params", invert_params)
    report = run_suite("roundtrip", 5, 12, 4)
    assert report["max_error"] is None
    assert len(report["failures"]) == 12
    assert report["min_shape_separation"] == clean["min_shape_separation"]


@pytest.mark.parametrize("jobs, chunk", [(1, None), (2, None), (1, 64), (2, 64)])
@pytest.mark.parametrize("n", [5, 6])
def test_a_planted_collision_fails_the_report(monkeypatch, serial_pool, n, jobs, chunk):
    """Trial b maps to trial a's shape pair: the scan finds the pair, draws
    both thetas again from their trial indices and reports the collision,
    whether a and b share a chunk or not."""
    seed, a, b = 0, 10, 100
    assert run_suite("roundtrip", n, 150, seed)["pass"]
    theta_a, theta_b = trial_theta(n, seed, a), trial_theta(n, seed, b)
    original = verify.designated_pairs
    copied = original(n, np.array([theta_a]))[0][0]

    def designated_pairs(n, theta):
        params, errors = original(n, theta)
        params[[row == theta_b for row in theta.tolist()]] = copied
        return params, errors

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify, "designated_pairs", designated_pairs)
    if chunk is not None:
        monkeypatch.setattr(verify, "TRIAL_CHUNK", chunk)
    report = run_suite("roundtrip", n, 150, seed, jobs=jobs)
    theta_sep = float(np.abs(np.array(theta_b) - theta_a).max())
    assert report["failures"][-1] == {"collision": {"trials": [a, b], "theta_separation": theta_sep}}
    assert report["failure_classes"]["collision"] == 1
    assert report["min_shape_separation"] == 0.0
    assert not report["pass"]


def trial_theta(n, seed, trial):
    """The angles that trial ``trial`` of ``seed`` draws, alone."""
    return verify._draw(n, seed, [trial])[0][0].tolist()


def _plant_model_failure(bad):
    """A ``verify.build_models`` whose row with the angles ``bad`` fails to build."""
    original = verify.build_models

    def build_models(thetas, words):
        stack = original(thetas, words)
        for i, row in enumerate(thetas.tolist()):
            if row == bad:
                stack.model_errors[i] = SignatureMismatch("planted")
        return stack

    return build_models


def _plant_planar_failure(row):
    """A ``verify.planar_params`` whose ``row`` fails."""
    original = verify.planar_params

    def planar_params(triangles):
        params, errors = original(triangles)
        errors[row] = SignatureMismatch("planted")
        return params, errors

    return planar_params


@pytest.mark.parametrize(
    "suite, target",
    [("signature", "build_model"), ("crossroute", "planar_shape"), ("all", "build_model")],
)
def test_a_raising_trial_is_the_only_failure(monkeypatch, suite, target):
    bad = trial_theta(6, 7, 3)
    if target == "build_model":  # the trial models are rows of one kernel call
        monkeypatch.setattr(verify, "build_models", _plant_model_failure(bad))
    else:  # the crossroute planar parameters are rows of one planar call; trial 3 is row 3
        monkeypatch.setattr(verify, "planar_params", _plant_planar_failure(3))
    report = run_suite(suite, 6, 8, 7, jobs=1)
    # Under ``all`` the three suites that share the trial's model each fail it.
    reports = report["reports"] if suite == "all" else {suite: report}
    hit = ("orthogonality", "signature", "crossroute") if suite == "all" else (suite,)
    planted = {"trial": 3, "failure": "SignatureMismatch: planted"}
    for name, sub in reports.items():
        assert sub["failures"] == ([planted] if name in hit else [])
        assert sub.get("max_error", 0.0) is not None


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-9, float("inf"), "1e-9", None, 1j, True])
@pytest.mark.parametrize("suite", ["roundtrip", "complex", "all"])
def test_a_tol_that_is_not_positive_and_finite_is_rejected(suite, tol):
    """A NaN tolerance would switch every ``error > tol`` gate off.  A
    string, None or a complex is OutOfRange too, not a bare TypeError, and a
    bool never reaches a report as ``"tol":true``."""
    with pytest.raises(OutOfRange, match="tol must be positive and finite"):
        run_suite(suite, 5, 20, 0, tol=tol)
    with pytest.raises(OutOfRange, match="tol must be positive and finite"):
        verify_injectivity(5, 20, 0, tol=tol)


def test_an_integer_tol_reports_as_the_flag_does(capsys):
    """``tol=1`` reports the float 1.0, as ``--tol 1`` reads it, and the
    same bytes."""
    report = run_suite("roundtrip", 5, samples=2, tol=1)
    assert type(report["tol"]) is float and report["tol"] == 1.0
    assert type(verify_injectivity(5, 2, 0, tol=1)["tol"]) is float
    assert cli.main(["verify", "--suite", "roundtrip", "--n", "5", "--samples", "2", "--tol", "1"]) == 0
    assert capsys.readouterr().out == dumps_canonical(report) + "\n"


@pytest.mark.parametrize("suite", ["roundtrip", "all"])
def test_jobs_below_one_is_rejected(suite):
    with pytest.raises(OutOfRange, match="jobs must be >= 1, got 0"):
        run_suite(suite, 5, 20, 0, jobs=0)


def test_an_integer_setting_of_any_integer_type_reports_as_the_python_int():
    """numpy integers and bools are read by ``operator.index``: the report
    holds the Python int, byte for byte; a float count or seed is OutOfRange."""
    want = dumps_canonical(run_suite("roundtrip", 5, samples=3, seed=1))
    got = run_suite("roundtrip", 5, samples=np.int64(3), seed=np.uint8(1), jobs=np.int32(1))
    assert dumps_canonical(got) == want
    assert dumps_canonical(run_suite("roundtrip", 5, samples=3, seed=True)) == want
    assert verify_injectivity(5, 3, np.int64(0)) == verify_injectivity(5, 3, 0)
    for bad in ({"samples": 3.0}, {"seed": 0.0}, {"jobs": 1.0}):
        with pytest.raises(OutOfRange, match="samples, seed and jobs must be integers"):
            run_suite("roundtrip", 5, **{"samples": 3, **bad})


@pytest.mark.parametrize("n", [5, 6])
def test_trial_indices_hold_across_chunks(monkeypatch, n):
    """Chunks of 4, 4 and 2 trials: failures planted at trials 5 and 9
    (inversion) and 6 (model) are reported under those trial numbers, in
    trial order, and the scan still reads the trials whose inversion failed."""
    seed = 2
    clean = run_suite("all", n, 10, seed)
    assert clean["pass"]

    params, _ = verify.designated_pairs(n, np.array([trial_theta(n, seed, 5), trial_theta(n, seed, 9)]))
    bad_pairs = set(map(tuple, params.tolist()))
    invert, scan = verify.invert_params, verify._separation_scan
    scanned = []

    def separation_scan(trials, shapes, thetas):
        scanned.extend(trials.tolist())
        return scan(trials, shapes, thetas)

    def invert_params(n, pairs, tol):
        *columns, errors = invert(n, pairs, tol)
        return (*columns, [
            InconsistentPair("planted") if tuple(row) in bad_pairs else e
            for row, e in zip(pairs.tolist(), errors)
        ])

    monkeypatch.setattr(verify, "invert_params", invert_params)
    monkeypatch.setattr(verify, "build_models", _plant_model_failure(trial_theta(n, seed, 6)))
    monkeypatch.setattr(verify, "_separation_scan", separation_scan)
    monkeypatch.setattr(verify, "TRIAL_CHUNK", 4)
    reports = run_suite("all", n, 10, seed)["reports"]
    assert scanned == list(range(10))
    roundtrip = reports["roundtrip"]
    assert roundtrip["failures"] == [
        {"trial": 5, "failure": "InconsistentPair: planted"},
        {"trial": 9, "failure": "InconsistentPair: planted"},
    ]
    sep = "min_shape_separation"
    assert roundtrip[sep] == clean["reports"]["roundtrip"][sep]
    planted = {"trial": 6, "failure": "SignatureMismatch: planted"}
    for name in ("orthogonality", "signature", "crossroute"):
        assert reports[name]["failures"] == [planted]
    assert reports["complex"] == clean["reports"]["complex"]
