"""The row protocol of stacked calls and the one rule for run settings."""

import math

import numpy as np
import pytest

from polymod.errors import (
    NoIntersection,
    OutOfRange,
    SignatureMismatch,
    check_settings,
    first_failures,
    unwrap,
)


class TestUnwrap:
    def test_a_value_passes_through(self):
        row = {"theta": (1.0, 2.0)}
        assert unwrap(row) is row
        assert unwrap(None) is None
        assert unwrap(0.0) == 0.0

    def test_a_recorded_failure_is_raised(self):
        failure = NoIntersection("recorded")
        with pytest.raises(NoIntersection) as info:
            unwrap(failure)
        assert info.value is failure

    def test_a_plain_exception_is_a_value(self):
        """Only a PolymodError is a recorded failure."""
        value = ValueError("not a row failure")
        assert unwrap(value) is value


class TestFirstFailures:
    def test_an_earlier_failure_is_kept(self):
        earlier = SignatureMismatch("earlier")
        errors = [None, earlier, None, None]
        mask = np.array([True, True, False, True])
        first_failures(errors, mask, lambda i: NoIntersection(f"row {i}"))
        assert errors[1] is earlier
        assert [str(e) if e is not None else None for e in errors] == [
            "row 0", "earlier", None, "row 3"
        ]

    def test_make_is_called_only_for_rows_it_records(self):
        made = []

        def make(i):
            made.append(i)
            return NoIntersection(str(i))

        errors = [NoIntersection("x"), None, None]
        first_failures(errors, np.array([True, True, False]), make)
        assert made == [1]

    def test_an_empty_mask_records_nothing(self):
        errors = []
        first_failures(errors, np.zeros(0, dtype=bool), lambda i: NoIntersection(str(i)))
        assert errors == []


class TestCheckSettings:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_a_tol_that_is_not_positive_and_finite_is_rejected(self, tol):
        with pytest.raises(OutOfRange, match="tol must be positive and finite"):
            check_settings(tol)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"samples": 0}, "samples must be >= 1, got 0"),
            ({"jobs": 0}, "jobs must be >= 1, got 0"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"samples": 10**6 + 1}, "samples must be <= 1000000, got 1000001"),
        ],
    )
    def test_counts_and_seed(self, bad, message):
        with pytest.raises(OutOfRange, match=message):
            check_settings(1e-9, **bad)

    def test_the_seed_is_a_128_bit_philox_key(self):
        check_settings(1e-9, seed=2**128 - 1)
        with pytest.raises(OutOfRange) as exc:
            check_settings(1e-9, seed=2**128)
        assert str(exc.value) == f"seed must be below 2**128, got {2**128}"

    def test_good_settings_pass(self):
        check_settings()  # every default is in the domain
        check_settings(1e-9, samples=1, seed=0, jobs=1)
        check_settings(1e300, samples=10**6, seed=2**40, jobs=64)
