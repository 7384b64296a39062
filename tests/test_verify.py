"""Tests for the verification engine behind ``polymod verify``."""

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


@pytest.mark.parametrize("suite", SUITES)
def test_samples_must_be_positive(suite):
    with pytest.raises(OutOfRange):
        run_suite(suite, 5, samples=0)


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


@pytest.mark.parametrize(
    "suite, target", [("signature", "build_model"), ("crossroute", "planar_shape")]
)
def test_a_raising_trial_is_the_only_failure(monkeypatch, suite, target):
    bad = sample_weight_rng(6, np.random.default_rng([7, 3]))
    original = getattr(verify, target)

    def planted(theta, word):
        if theta == bad:
            raise SignatureMismatch("planted")
        return original(theta, word)

    monkeypatch.setattr(verify, target, planted)
    report = run_suite(suite, 6, 8, 7, jobs=1)
    assert report["failures"] == [{"trial": 3, "failure": "SignatureMismatch: planted"}]
    assert report["max_error"] is not None
