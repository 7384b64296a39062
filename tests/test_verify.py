"""Tests for the verification engine behind ``polymod verify``."""

import concurrent.futures
import os

import numpy as np
import pytest

from polymod import (
    SUITES,
    InconsistentPair,
    OutOfRange,
    SignatureMismatch,
    run_suite,
    verify,
    verify_injectivity,
)
from polymod.combinatorics import sample_weight_rng


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
    """Each trial is drawn once and its model is one row of one kernel call."""
    calls = {"sample_weight_rng": 0, "build_models": 0}
    draw, build = verify.sample_weight_rng, verify.build_models

    def sample_weight_rng(*args):
        calls["sample_weight_rng"] += 1
        return draw(*args)

    def build_models(thetas, words):
        calls["build_models"] += len(thetas)
        return build(thetas, words)

    monkeypatch.setattr(verify, "sample_weight_rng", sample_weight_rng)
    monkeypatch.setattr(verify, "build_models", build_models)
    assert run_suite("all", n, 10, 2, jobs=1)["pass"]
    assert calls == {"sample_weight_rng": 10, "build_models": 10}


def test_the_pool_has_no_more_workers_than_cores(monkeypatch):
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
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = run_suite("all", 5, 6, 1, jobs=1)
    assert sizes == []
    assert run_suite("all", 5, 6, 1, jobs=100_000) == serial
    assert run_suite("all", 5, 6, 1, jobs=2) == serial
    assert sizes == [3, 2]


@pytest.mark.parametrize("n", [5, 6])
def test_verify_injectivity_is_the_roundtrip_suite(n):
    suite = run_suite("roundtrip", n, 30, 11)
    for key in ("schema", "version", "suite"):
        del suite[key]
    assert verify_injectivity(n, 30, 11) == suite


def test_failed_inversions_still_enter_the_scan(monkeypatch):
    clean = run_suite("roundtrip", 5, 12, 4)

    def inversion_report(*args):
        raise InconsistentPair("planted")

    monkeypatch.setattr(verify, "inversion_report", inversion_report)
    report = run_suite("roundtrip", 5, 12, 4)
    assert report["max_error"] is None
    assert len(report["failures"]) == 12
    assert report["min_shape_separation"] == clean["min_shape_separation"]


def _plant_model_failure(bad):
    """A ``verify.build_models`` whose row for ``bad`` fails to build."""
    original = verify.build_models

    def build_models(thetas, words):
        stack = original(thetas, words)
        for i, theta in enumerate(thetas):
            if theta == bad:
                stack.model_errors[i] = SignatureMismatch("planted")
        return stack

    return build_models


def _plant_planar_failure(bad):
    """A ``verify.planar_shape`` that raises for ``bad``."""
    original = verify.planar_shape

    def planar_shape(theta, word):
        if theta == bad:
            raise SignatureMismatch("planted")
        return original(theta, word)

    return planar_shape


@pytest.mark.parametrize(
    "suite, target",
    [("signature", "build_model"), ("crossroute", "planar_shape"), ("all", "build_model")],
)
def test_a_raising_trial_is_the_only_failure(monkeypatch, suite, target):
    bad = sample_weight_rng(6, np.random.default_rng([7, 3]))
    if target == "build_model":  # the trial models are rows of one kernel call
        monkeypatch.setattr(verify, "build_models", _plant_model_failure(bad))
    else:
        monkeypatch.setattr(verify, target, _plant_planar_failure(bad))
    report = run_suite(suite, 6, 8, 7, jobs=1)
    # Under ``all`` the three suites that share the trial's model each fail it.
    reports = report["reports"] if suite == "all" else {suite: report}
    hit = ("orthogonality", "signature", "crossroute") if suite == "all" else (suite,)
    planted = {"trial": 3, "failure": "SignatureMismatch: planted"}
    for name, sub in reports.items():
        assert sub["failures"] == ([planted] if name in hit else [])
        assert sub.get("max_error", 0.0) is not None
