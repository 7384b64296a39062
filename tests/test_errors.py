"""The row protocol of stacked calls, the one rule for run settings, and
the library's own argument checks, which the CLI's checks shadow."""

import math

import numpy as np
import pytest

from polymod.combinatorics import equal_weight, sample_weight_rng
from polymod.complexes import build_complex, cusp_classes, face_config, triple_config, vertex_config
from polymod.errors import (
    NoIntersection,
    OutOfRange,
    SignatureMismatch,
    check_settings,
    first_failures,
    unwrap,
)
from polymod.fiber import fiber_theta5, invert_params
from polymod.jsonio import dumps_canonical, format_float
from polymod.lorentz import build_models
from polymod.moduli import PentagonShape
from polymod.planar import pentagon_feet
from polymod.verify import run_suite


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
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, -math.inf, 10**400, "1e-9",
                                     None, 1j, True, np.True_])
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
            ({"samples": 2.0}, "samples, seed and jobs must be integers, got 2.0, 0, 1"),
            ({"seed": 0.5}, "samples, seed and jobs must be integers, got 1, 0.5, 1"),
            ({"jobs": 1.0}, "samples, seed and jobs must be integers, got 1, 0, 1.0"),
            ({"seed": "1"}, "samples, seed and jobs must be integers, got 1, '1', 1"),
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
        # any integer type, numpy's and bool included, comes back as a Python
        # int, and any real tol but a bool as a float
        got = check_settings(1, samples=np.int64(3), seed=np.uint64(2**63), jobs=True)
        assert got == (1.0, 3, 2**63, 1) and type(got[0]) is float
        assert all(type(v) is int for v in got[1:])
        assert check_settings(np.float32(0.5))[0] == 0.5


WORD5 = (1, 2, 3, 4, 5)
SUITES = "('roundtrip', 'orthogonality', 'signature', 'crossroute', 'complex', 'all')"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: equal_weight(3), "need n >= 4, got 3"),
        (lambda: sample_weight_rng(3, np.random.default_rng(0)), "need n >= 4, got 3"),
        (lambda: face_config(WORD5, 0), "face index must be in 1..5, got 0"),
        (lambda: vertex_config(WORD5, 1, 1), "need two distinct face indices in 1..5, got 1, 1"),
        (lambda: triple_config(WORD5, 6), "face index must be in 1..5, got 6"),
        (lambda: build_complex(5, equal_weight(6)), "theta has 6 angles but n = 5"),
        (lambda: cusp_classes(build_complex(5)), "cusp classes are computed for n=6 complexes"),
        (lambda: fiber_theta5(PentagonShape(0.9, 0.9), 0.3 + 0.5j, (1, 2, 3, 4, 5, 6)),
         "label has 6 marks but the construction has 5"),
        (lambda: invert_params(7, np.ones((1, 8))), "inversion is defined for n in {5, 6}, got 7"),
        (lambda: format_float(math.nan), "cannot serialize non-finite float nan"),
        (lambda: dumps_canonical({1: 2}), "JSON object keys must be strings, got 1"),
        (lambda: dumps_canonical(object()), "cannot serialize object of type object"),
        (lambda: build_models(np.zeros((0, 5)), []), "a model stack needs at least one row"),
        (lambda: build_models(np.array([equal_weight(5).theta]), [(1, 2, 3, 4, 5, 6)]),
         "label has 6 marks but theta has 5 angles"),
        (lambda: build_models(np.full((1, 4), math.pi / 2), [(1, 2, 3, 4)]),
         "completion triangles exist for n in {5, 6}, got 4"),
        (lambda: pentagon_feet(equal_weight(6), (1, 2, 3, 4, 5, 6)), "pentagon feet need n=5, got 6"),
        (lambda: run_suite("nope", 5), f"unknown suite 'nope', expected one of {SUITES}"),
        (lambda: run_suite("roundtrip", 7), "n must be 5 or 6, got 7"),
    ],
    ids=["equal_weight", "sample_weight_rng", "face_config", "vertex_config", "triple_config",
         "build_complex", "cusp_classes", "fiber_theta5", "invert_params", "format_float",
         "dumps_canonical-key", "dumps_canonical-type", "build_models-empty", "build_models-word",
         "build_models-n", "pentagon_feet", "run_suite-suite", "run_suite-n"],
)
def test_a_library_call_outside_its_domain_raises_out_of_range(call, message):
    """Each public call checks its own arguments, though the CLI never
    passes these: a library caller gets the class and message, not a
    wrong result or a numpy error."""
    with pytest.raises(OutOfRange) as exc:
        call()
    assert type(exc.value) is OutOfRange and str(exc.value) == message
