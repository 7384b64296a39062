"""End-to-end tests for the command-line interface."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polymod.errors
from polymod import cli, fiber, psi5, psi6, sweep, validate_weight, verify
from polymod.combinatorics import sample_weight_rng
from polymod.errors import PolymodError, RouteDisagreement
from polymod.jsonio import MAX_EXPRESSION, SUITES, parse_rows, parse_theta

from fresh import SRC, fresh
from lorentz_oracle import boundary_weights
from test_verify import VERIFY_HASHES

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
EQUAL5 = "5x2pi/5"
EQUAL6 = "6xpi/3"

# forward images of sample_weight(6, 31) under the designated label pair;
# the second R is scaled by 1.1 so only the circle-free parameter disagrees
R_CORRUPT_S1 = "0.85078013517135331,0.6819687671208382,0.85424926917206423"
R_CORRUPT_S2 = "1.2107955995377901,1.4297932113270326,0.93967419608927072"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ===========================================================================
# forward
# ===========================================================================

class TestForward:
    def test_equal_weight_pentagon(self, capsys):
        code, doc, _ = run_json(
            capsys, "forward", "--n", "5", "--theta", EQUAL5, "--label", "12345"
        )
        assert code == 0
        assert doc["schema"] == "polymod-forward/1"
        assert doc["version"] == 1
        want = math.tanh(math.acosh(GOLDEN))
        assert doc["shape"]["P"] == pytest.approx(want, abs=1e-12)
        assert doc["shape"]["Q"] == pytest.approx(want, abs=1e-12)
        assert doc["facet_order"] == [1, 3, 5, 2, 4]
        side = math.acosh(GOLDEN)
        assert len(doc["side_lengths"]) == 5
        for length in doc["side_lengths"]:
            assert length == pytest.approx(side, abs=1e-12)

    def test_theta_token_forms_agree(self, capsys):
        _, first, _ = run(
            capsys, "forward", "--n", "5", "--theta", EQUAL5, "--label", "12345"
        )
        _, second, _ = run(
            capsys, "forward", "--n", "5",
            "--theta", "2pi/5,2pi/5,2pi/5,2pi/5,2pi/5", "--label", "12345",
        )
        _, third, _ = run(
            capsys, "forward", "--n", "5",
            "--theta", ",".join(["1.2566370614359172"] * 5),
            "--label", "12345",
        )
        assert first == second == third

    def test_equal_weight_hexahedron(self, capsys):
        code, doc, _ = run_json(
            capsys, "forward", "--n", "6", "--theta", EQUAL6, "--label", "123456"
        )
        assert code == 0
        cls = doc["classification"]
        assert cls["type"] == "a"
        assert cls["ideal"] == [True, True, True]
        assert all(v == "triangle" for v in cls["faces"].values())
        for key in ("P", "Q", "R"):
            assert doc["shape"][key] == pytest.approx(1.0, abs=1e-9)

    def test_bad_label_exits_2(self, capsys):
        code, doc, _ = run_json(
            capsys, "forward", "--n", "5", "--theta", EQUAL5, "--label", "12344"
        )
        assert code == 2
        assert doc["schema"] == "polymod-error/1"
        assert doc["error"] == "NotAPermutation"

    def test_an_unparsable_label_exits_2(self, capsys):
        """A letter in the word: the parser's own error, not a bug (exit 6)."""
        code, doc, err = run_json(capsys, "forward", "--n", "5", "--theta", "5x2pi/5", "--label", "12a45")
        assert code == 2
        assert doc == {"schema": "polymod-error/1", "version": 1, "error": "OutOfRange",
                       "message": "cannot parse label '12a45'"}
        assert err == ""

    def test_theta_outside_domain_exits_2(self, capsys):
        code, doc, _ = run_json(
            capsys, "forward", "--n", "5",
            "--theta", "3.0,0.1,3.083185307179586,0.05,0.05",
            "--label", "12345",
        )
        assert code == 2
        assert doc["schema"] == "polymod-error/1"

    def test_pair_sum_is_checked_after_rescaling(self, capsys):
        """Raw pair sum just below pi, lifted onto pi by the exact-sum rescale."""
        code, doc, _ = run_json(
            capsys, "forward", "--n", "5", "--theta",
            "1.5707963267948963,1.5707963267948963,1.0471975511965976,"
            "1.0471975511965976,1.0471975511959977",
        )
        assert code == 2
        assert doc["schema"] == "polymod-error/1"
        assert doc["error"] == "PairSumTooLarge"

    @pytest.mark.parametrize("token", ["10**400", "7//2", "1e400"])
    def test_power_and_overflow_tokens_exit_2(self, token):
        """Run as a fresh process so an escaping traceback would show on stderr."""
        argv = ["forward", "--n", "5", "--theta", f"{token},1,1,1,1", "--label", "12345"]
        proc = fresh("-m", "polymod.cli", *argv)
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "polymod-error/1"
        assert doc["error"] == "OutOfRange"
        assert proc.stderr == ""

    @pytest.mark.parametrize("count", ["1" * 5000, "9", "0009"], ids=["5000-digits", "9", "0009"])
    def test_large_repetition_count_exits_2(self, count):
        """Counts above the bound are rejected before conversion or expansion."""
        proc = fresh("-m", "polymod.cli", "forward", "--n", "5", "--theta", f"{count}x1")
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert doc["error"] == "OutOfRange"
        assert "exceeds 8" in doc["message"]
        assert proc.stderr == ""

    def test_token_compiling_with_a_warning_writes_nothing_to_stderr(self, tmp_path):
        """``2(3)`` would compile with a SyntaxWarning; it is refused as a
        call before anything compiles, and neither ``forward`` nor ``sweep``
        (which parses row 1 cell by cell, for header detection) prints a
        warning.  Fresh processes, since a warning prints once per process."""
        theta = "2(3),1,1,1,1"
        forward = fresh("-m", "polymod.cli", "forward", "--n", "5", "--theta", theta)
        assert forward.returncode == 2
        doc = json.loads(forward.stdout)
        assert doc["error"] == "OutOfRange"
        assert doc["message"] == "angle token '2(3)' uses an unsupported operator"
        assert forward.stderr == ""

        src = tmp_path / "rows.csv"
        src.write_text(f"{theta}\n{EQUAL5}\n", encoding="utf-8")
        sweep = fresh("-m", "polymod.cli", "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert sweep.returncode == 0
        assert len(sweep.stdout.splitlines()) == 2
        assert sweep.stderr == f"row 1: OutOfRange: {doc['message']}\n"

    def test_an_expression_of_max_expression_characters_is_evaluated(self, capsys):
        """The bound counts the expression once spaces are dropped, after
        the ``Nx`` prefix: 1,000 characters run, 1,001 do not."""
        at, over = "2pi/5" + "+0" * 496 + "+0.", "2pi/5 " + "+0" * 498
        assert (len(at), len(over.replace(" ", ""))) == (MAX_EXPRESSION, MAX_EXPRESSION + 1)
        _, want, _ = run(capsys, "forward", "--n", "5", "--theta", EQUAL5)
        assert run(capsys, "forward", "--n", "5", "--theta", f"5x{at}") == (0, want, "")
        code, doc, err = run_json(capsys, "forward", "--n", "5", "--theta", f"5x{over}")
        assert (code, doc["error"], err) == (2, "OutOfRange", "")
        assert doc["message"] == "angle token of 1001 characters exceeds 1000"

    def test_a_long_product_is_refused_unread(self, capsys, tmp_path):
        """200 integers of 4,000 digits multiplied (800 KB) took 1.2 s in
        ``eval`` before it raised; the error names the length, not the token,
        through ``forward`` and through a ``sweep`` row."""
        token = "*".join(["9" * 4000] * 200)
        message = f"angle token of {len(token)} characters exceeds {MAX_EXPRESSION}"
        code, doc, err = run_json(capsys, "forward", "--n", "5", "--theta", f"{token},1,1,1,1")
        assert (code, doc["error"], doc["message"], err) == (2, "OutOfRange", message, "")
        src = tmp_path / "long.csv"
        src.write_text(f"{EQUAL5}\n{token},1,1,1,1\n{EQUAL5}\n", encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert (code, err, len(out.splitlines())) == (0, f"row 2: OutOfRange: {message}\n", 3)

    @pytest.mark.parametrize("theta", ["5x2@/5", "2@/5,2pi/5,2pi/5,2pi/5,2pi/5"])
    def test_at_sign_is_not_a_spelling_of_pi(self, capsys, theta):
        code, doc, _ = run_json(capsys, "forward", "--n", "5", "--theta", theta)
        assert code == 2
        assert doc["error"] == "OutOfRange"
        assert doc["message"] == "angle token '2@/5' contains unsupported characters"


# ===========================================================================
# invert
# ===========================================================================

class TestInvert:
    def test_equal_weight_hexahedra(self, capsys):
        code, doc, _ = run_json(
            capsys, "invert", "--n", "6",
            "--shape1", "1,1,1", "--shape2", "1,1,1",
        )
        assert code == 0
        assert doc["schema"] == "polymod-invert/1"
        assert doc["w"][0] == pytest.approx(0.5, abs=1e-12)
        assert doc["w"][1] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        for angle in doc["theta"]:
            assert angle == pytest.approx(math.pi / 3.0, abs=1e-9)
        assert doc["residual"] <= 1e-9

    def test_roundtrip_through_forward(self, capsys):
        theta = "1.1,1.3,0.9,1.5,1.4831853071795865"
        _, fwd1, _ = run_json(
            capsys, "forward", "--n", "5", "--theta", theta, "--label", "12345"
        )
        _, fwd2, _ = run_json(
            capsys, "forward", "--n", "5", "--theta", theta, "--label", "21435"
        )
        shape1 = f"{fwd1['shape']['P']:.17g},{fwd1['shape']['Q']:.17g}"
        shape2 = f"{fwd2['shape']['P']:.17g},{fwd2['shape']['Q']:.17g}"
        code, doc, _ = run_json(
            capsys, "invert", "--n", "5",
            "--shape1", shape1, "--shape2", shape2,
        )
        assert code == 0
        want = [float(tok) for tok in theta.split(",")]
        for have, expect in zip(doc["theta"], want):
            assert have == pytest.approx(expect, abs=1e-9)

    def test_disjoint_circles_exit_3(self, capsys):
        code, doc, _ = run_json(
            capsys, "invert", "--n", "5",
            "--shape1", "0.31578947368421051,0.95",
            "--shape2", "0.95,0.31578947368421051",
        )
        assert code == 3
        assert doc["error"] == "NoIntersection"

    def test_corrupted_r_exits_4(self, capsys):
        code, doc, _ = run_json(
            capsys, "invert", "--n", "6",
            "--shape1", R_CORRUPT_S1, "--shape2", R_CORRUPT_S2,
        )
        assert code == 4
        assert doc["error"] == "InconsistentPair"

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([5, 6]),
        seed=st.integers(0, 2**32 - 1),
        slot=st.integers(0, 5),
        exponent=st.floats(math.log10(1.0 + 1e-6), 12.0),
    )
    @example(n=6, seed=0, slot=5, exponent=10.0)  # R2: only the verification reads it
    @example(n=6, seed=1, slot=2, exponent=12.0)
    def test_a_pair_exits_0_only_within_tol_of_its_input(self, n, seed, slot, exponent):
        """A true designated pair inverts; the same pair with one parameter
        scaled by 1 + 1e-6 to 1e12 may exit 0 only when each input parameter
        is within tol of the forward map of the printed theta, relative to
        the larger of 1 and the two values, not to its square."""
        theta = sample_weight_rng(n, np.random.default_rng(seed))
        psi = psi5 if n == 5 else psi6
        params = [v for word in fiber.DESIGNATED[n] for v in psi(theta, word).params]
        perturbed = list(params)
        perturbed[slot % len(params)] *= 10.0**exponent
        for values, true in ((params, True), (perturbed, False)):
            half = len(values) // 2
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([
                    "invert", "--n", str(n),
                    "--shape1", ",".join(map(repr, values[:half])),
                    "--shape2", ",".join(map(repr, values[half:])),
                ])
            assert code == 0 or not true, out.getvalue()
            if code == 0:
                back = validate_weight(json.loads(out.getvalue())["theta"])
                image = [v for word in fiber.DESIGNATED[n] for v in psi(back, word).params]
                assert all(
                    abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b)) for a, b in zip(values, image)
                ), (values, image)

    def test_an_unparsable_shape_exits_2(self, capsys):
        """A letter in a parameter: the parser's own error, not a bug (exit 6)."""
        code, doc, err = run_json(capsys, "invert", "--n", "5", "--shape1", "a,b", "--shape2", "0.9,0.9")
        assert code == 2
        assert doc == {"schema": "polymod-error/1", "version": 1, "error": "OutOfRange",
                       "message": "cannot parse shape 'a,b'"}
        assert err == ""

    @pytest.mark.parametrize(
        "shape1, message",
        [
            ("inf,1,1", "needs finite P, Q, R, got (inf, 1.0, 1.0)"),
            ("1,1,inf", "needs finite P, Q, R, got (1.0, 1.0, inf)"),
            ("1,-inf,1", "needs P, Q, R > 0, got (1.0, -inf, 1.0)"),
        ],
    )
    def test_a_non_finite_hexahedron_parameter_exits_2(self, capsys, shape1, message):
        """An infinite parameter is an input error, not a failed inversion."""
        code, doc, _ = run_json(
            capsys, "invert", "--n", "6", "--shape1", shape1, "--shape2", "1,1,1",
        )
        assert code == 2
        assert doc["error"] == "OutOfRange"
        assert doc["message"] == f"hexahedron shape {message}"


    @pytest.mark.parametrize(
        "shape1, shape2, code, error, message",
        [
            ("1e160,1,1", "1e-160,1,1", 2, "OutOfRange",
             "hexahedron shape (1e+160, 1.0, 1.0): a square overflows"),
            ("1,1,1e200", "1,1,1e-200", 2, "OutOfRange",
             "hexahedron shape (1.0, 1.0, 1e+200): a square overflows"),
            # the designated pair of theta (0.9, 0.9, 0.9, 1.2, 1.2, *) but for
            # R2, which only the forward verification reads
            ("1.1203086020009727,0.7704232062363703,1.0657184013244674",
             "1.1203086020009727,0.9166856546393473,1e200", 2, "OutOfRange",
             "hexahedron shape (1.1203086020009727, 0.9166856546393473, 1e+200): "
             "a square overflows"),
            ("1,1e-200,1", "1,1e-200,1", 3, "NoIntersection",
             "circles |w| = 1 about 0 and |w - 1| = inf about 1 do not meet"),
            # the circle radii overflow: a product P1*P2 or Q1*Q2, or 1/(Q1*Q2)
            ("1e200,1,1", "1e200,1,1", 2, "OutOfRange",
             "hexahedron shape (1e+200, 1.0, 1.0): a square overflows"),
            ("1,1e200,1", "1,1e200,1", 2, "OutOfRange",
             "hexahedron shape (1.0, 1e+200, 1.0): a square overflows"),
            ("1,1e-155,1", "1,1e-155,1", 3, "NoIntersection",
             "circles |w| = 1 about 0 and |w - 1| = inf about 1 do not meet"),
        ],
    )
    def test_a_parameter_beyond_the_double_range_exits_with_a_document(
        self, capsys, shape1, shape2, code, error, message
    ):
        """A square that overflows, in either shape, is an input error; a
        product Q1*Q2 that underflows to 0, or whose inverse overflows, is an
        infinite circle radius, so the circles do not meet.  Neither prints a
        traceback or a warning."""
        got, doc, err = run_json(
            capsys, "invert", "--n", "6", "--shape1", shape1, "--shape2", shape2
        )
        assert (got, doc["schema"], doc["error"]) == (code, "polymod-error/1", error)
        assert doc["message"].startswith(message)
        assert err == ""

    def test_an_overflowing_circle_radius_prints_nothing_on_stderr(self):
        """In a fresh interpreter, where a numpy warning would reach stderr:
        1/(Q1*Q2) overflows to an infinite radius and the error document is
        all the output."""
        argv = ("invert", "--n", "6", "--shape1", "1,1e-155,1", "--shape2", "1,1e-155,1")
        proc = fresh("-m", "polymod.cli", *argv)
        assert (proc.returncode, proc.stderr) == (3, "")
        assert json.loads(proc.stdout)["error"] == "NoIntersection"


# ===========================================================================
# complex
# ===========================================================================

class TestComplex:
    def test_euler_report(self, capsys):
        code, doc, _ = run_json(capsys, "complex", "--n", "5", "--report", "euler")
        assert code == 0
        assert doc["schema"] == "polymod-complex/1"
        assert {k: doc[k] for k in ("V", "E", "F", "chi")} == {
            "V": 15, "E": 30, "F": 12, "chi": -3,
        }

    def test_cusps_report(self, capsys):
        code, doc, _ = run_json(capsys, "complex", "--n", "6", "--report", "cusps")
        assert code == 0
        assert doc["classes"] == 10
        assert all(row["incidences"] == 18 for row in doc["table"])

    def test_cusps_off_equal_weight_exit_5(self, capsys):
        code, doc, _ = run_json(
            capsys, "complex", "--n", "6",
            "--theta", "0.9,0.9,0.9,1.2,1.2,1.1831853071795865",
            "--report", "cusps",
        )
        assert code == 5
        assert doc["error"] == "NotEqualWeight"

    def test_pairings_report(self, capsys):
        code, doc, _ = run_json(
            capsys, "complex", "--n", "6", "--report", "pairings"
        )
        assert code == 0
        assert doc["rows"] == 180
        assert len(doc["pairings"]) == 180
        first = doc["pairings"][0]
        assert set(first) == {"cell", "face", "other_cell", "other_face", "config"}

    def test_singular_report(self, capsys):
        code, doc, _ = run_json(
            capsys, "complex", "--n", "6",
            "--theta", "0.9,0.9,0.9,1.2,1.2,1.1831853071795865",
            "--report", "singular",
        )
        assert code == 0
        assert doc["classes"] == 30
        assert all(row["members"] == 6 for row in doc["table"])


# ===========================================================================
# verify
# ===========================================================================

class TestVerify:
    def test_small_roundtrip_passes(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5",
            "--samples", "20", "--seed", "7",
        )
        assert code == 0
        assert doc["pass"] is True
        assert doc["samples"] == 20

    def test_output_independent_of_jobs(self, capsys):
        base = ["verify", "--suite", "roundtrip", "--n", "6",
                "--samples", "40", "--seed", "3"]
        _, serial, _ = run(capsys, *base, "--jobs", "1")
        _, parallel, _ = run(capsys, *base, "--jobs", "2")
        assert serial == parallel

    @pytest.mark.parametrize("suite", ["orthogonality", "signature", "crossroute"])
    def test_sampled_suites_independent_of_jobs(self, capsys, suite):
        base = ["verify", "--suite", suite, "--n", "6",
                "--samples", "40", "--seed", "3"]
        _, serial, _ = run(capsys, *base, "--jobs", "1")
        _, parallel, _ = run(capsys, *base, "--jobs", "2")
        assert serial == parallel

    def test_forward_failure_is_a_failed_trial(self, capsys, monkeypatch):
        """A forward-map error in one roundtrip trial fails that trial only."""
        bad = verify._draw(5, 7, [3])[0][0].tolist()  # trial 3 of seed 7
        original = fiber.forward_params

        def forward_params(n, theta, labels):
            params, errors = original(n, theta, labels)
            return params, [
                RouteDisagreement("planted") if row == bad else e
                for row, e in zip(theta.tolist(), errors)
            ]

        # the designated-pair forward of a chunk is one fiber.forward_params call
        monkeypatch.setattr(fiber, "forward_params", forward_params)
        code, doc, err = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5",
            "--samples", "8", "--seed", "7", "--jobs", "1",
        )
        assert code == 1
        assert doc["pass"] is False
        assert doc["failures"] == [
            {"trial": 3, "failure": "RouteDisagreement: planted"}
        ]
        assert doc["min_shape_separation"] > 0.0
        assert err == ""

    def test_failing_suite_exits_nonzero(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5",
            "--samples", "5", "--tol", "1e-30",
        )
        assert code == 1
        assert doc["pass"] is False

    @pytest.mark.parametrize("suite", ["orthogonality", "all"])
    def test_a_bug_in_a_check_exits_6_not_as_a_failed_trial(self, capsys, monkeypatch, suite):
        """A non-polymod exception is a bug, not a failed trial: one error
        document naming its class, exit 6, and nothing on stderr."""
        def orthogonality(model):
            raise TypeError("planted")

        monkeypatch.setattr(verify, "_orthogonality", orthogonality)
        code, doc, err = run_json(capsys, "verify", "--suite", suite, "--n", "5", "--samples", "4")
        assert code == 6
        assert doc == {
            "schema": "polymod-error/1", "version": 1, "error": "TypeError", "message": "planted",
        }
        assert err == ""

    @pytest.mark.parametrize("source", ["flag"])  # the only source of a run setting
    def test_negative_seed_exits_2(self, capsys, source):
        argv = ["verify", "--suite", "all", "--n", "5", "--samples", "2", "--seed", "-1"]
        code, doc, err = run_json(capsys, *argv)
        assert code == 2
        assert doc["schema"] == "polymod-error/1"
        assert doc["message"] == "seed must be non-negative, got -1"
        assert err == ""

    def test_a_seed_of_2_to_the_128_exits_2_before_any_trial(self, capsys, monkeypatch):
        """2**128 - 1 is the largest 128-bit Philox key; 2**128 would wrap."""
        code, doc, err = run_json(capsys, "verify", "--suite", "roundtrip", "--n", "5", "--samples", "3",
                                  "--seed", str(2**128 - 1))
        assert (code, doc["seed"], err) == (0, 2**128 - 1, "")

        def no_trials(*args):
            raise AssertionError("reached the trial runner")

        monkeypatch.setattr(verify, "_run_sampled", no_trials)
        code, doc, err = run_json(capsys, "verify", "--suite", "all", "--n", "5", "--seed", str(2**128))
        assert code == 2
        assert doc == {"schema": "polymod-error/1", "version": 1, "error": "OutOfRange",
                       "message": f"seed must be below 2**128, got {2**128}"}
        assert err == ""

    def test_samples_beyond_the_bound_exit_2_before_any_trial(self, capsys, monkeypatch):
        """10**12 samples would make 10**10 chunk ranges before the first
        trial; the bound rejects the count first."""
        def no_trials(*args):
            raise AssertionError("reached the trial runner")

        monkeypatch.setattr(verify, "_run_sampled", no_trials)
        code, doc, err = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5", "--samples", str(10**12)
        )
        assert code == 2
        assert doc["error"] == "OutOfRange"
        assert doc["message"] == "samples must be <= 1000000, got 1000000000000"
        assert err == ""

    def test_bad_tolerance_exits_2(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5",
            "--tol", "-1.0",
        )
        assert code == 2
        assert doc["error"] == "OutOfRange"


# ===========================================================================
# sweep
# ===========================================================================

SWEEP_ROWS = (
    "theta1,theta2,theta3,theta4,theta5\n"
    "2pi/5,2pi/5,2pi/5,2pi/5,2pi/5\n"
    "bad,1,1,1,1\n"
    "0.9,1.4,1.2,1.5,1.2831853071795865\n"
)


def edge_rows(count: int) -> list[str]:
    """``count`` n=5 rows near the boundary, some of which fail."""
    thetas = boundary_weights(5, np.random.default_rng(11), count)
    return [",".join(map(repr, theta.theta)) for theta in thetas]


HEADER5 = "theta1,theta2,theta3,theta4,theta5"
BOM = "\ufeff"

#: id: the bytes of an input file whose split the reader must keep.
EDGE_FILES = {
    "empty": lambda: b"",
    "header-only": lambda: f"{HEADER5}\n".encode(),
    "blank-lines-only": lambda: b"\n \n\n",
    "bom-only": lambda: BOM.encode(),
    "bom-before-header": lambda: f"{BOM}{HEADER5}\n{EQUAL5}\n".encode(),
    "form-feed-and-file-separator": lambda: (
        "\x0c".join(edge_rows(3)) + "\x1c" + "\x1c".join(edge_rows(3)) + "\n"
    ).encode(),
    "cr-only": lambda: "\r".join([HEADER5, *edge_rows(20), "bad,1,1,1,1"]).encode() + b"\r",
    "crlf": lambda: "\r\n".join([HEADER5, *edge_rows(20), "", "bad,1,1,1,1"]).encode() + b"\r\n",
    "no-final-newline": lambda: "\n".join([HEADER5, *edge_rows(5)]).encode(),
    "blank-line-before-header": lambda: f"\n{HEADER5}\n{EQUAL5}\n".encode(),
    "header-and-256-rows": lambda: "\n".join([HEADER5, *edge_rows(256)]).encode() + b"\n",
    "header-and-257-rows": lambda: "\n".join([HEADER5, *edge_rows(257)]).encode() + b"\n",
}


class TestSweep:
    def test_writes_csv_and_reports_bad_rows(self, capsys, tmp_path):
        src = tmp_path / "thetas.csv"
        src.write_text(SWEEP_ROWS, encoding="utf-8")
        out = tmp_path / "shapes.csv"
        code, _, err = run(
            capsys, "sweep", "--n", "5", "--input", str(src),
            "--label", "12345", "--out", str(out),
        )
        assert code == 0
        assert "row 3" in err
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "theta1,theta2,theta3,theta4,theta5,P,Q"
        assert len(lines) == 3  # header + two good rows
        first = lines[1].split(",")
        want = math.tanh(math.acosh(GOLDEN))
        assert float(first[5]) == pytest.approx(want, abs=1e-12)
        assert float(first[6]) == pytest.approx(want, abs=1e-12)

    def test_overflowing_row_is_reported_and_skipped(self, capsys, tmp_path):
        src = tmp_path / "thetas.csv"
        src.write_text(
            SWEEP_ROWS.replace("bad,1,1,1,1", "10**400,1,1,1,1"), encoding="utf-8"
        )
        code, out, err = run(
            capsys, "sweep", "--n", "5", "--input", str(src),
            "--label", "12345", "--out", "-",
        )
        assert code == 0
        assert "row 3: OutOfRange: " in err
        assert len(out.splitlines()) == 3  # header + both valid rows

    def test_large_repetition_count_row_is_reported_and_skipped(self, capsys, tmp_path):
        src = tmp_path / "thetas.csv"
        src.write_text(
            SWEEP_ROWS.replace("bad,1,1,1,1", "1" * 5000 + "x1"), encoding="utf-8"
        )
        code, out, err = run(
            capsys, "sweep", "--n", "5", "--input", str(src), "--out", "-",
        )
        assert code == 0
        assert err.startswith("row 3: OutOfRange: repetition count in ")
        assert len(out.splitlines()) == 3  # header + both valid rows

    def test_stdout_output(self, capsys, tmp_path):
        src = tmp_path / "thetas.csv"
        src.write_text(SWEEP_ROWS, encoding="utf-8")
        code, out, _ = run(
            capsys, "sweep", "--n", "5", "--input", str(src),
            "--label", "12345", "--out", "-",
        )
        assert code == 0
        assert out.splitlines()[0] == "theta1,theta2,theta3,theta4,theta5,P,Q"

    def test_hexahedron_columns(self, capsys, tmp_path):
        src = tmp_path / "thetas.csv"
        src.write_text("pi/3,pi/3,pi/3,pi/3,pi/3,pi/3\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "sweep", "--n", "6", "--input", str(src),
            "--label", "123456", "--out", "-",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "theta1,theta2,theta3,theta4,theta5,theta6,"
            "P,Q,R,type,sign_P,sign_Q,sign_R"
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [5, 6])
    def test_near_boundary_rows_warn_nothing(self, capsys, tmp_path, n):
        """Rows that fail inside the stacked kernel print their row line and
        nothing else: no numpy warning reaches stderr."""
        thetas = boundary_weights(n, np.random.default_rng(40 + n), 600)
        src = tmp_path / "near.csv"
        src.write_text(
            "".join(",".join(map(repr, theta.theta)) + "\n" for theta in thetas),
            encoding="utf-8",
        )
        code, out, err = run(capsys, "sweep", "--n", str(n), "--input", str(src), "--out", "-")
        assert code == 0
        lines = err.splitlines()
        assert all(re.match(r"row \d+: \w+: ", line) for line in lines)
        assert any(": SignatureMismatch: " in line for line in lines)
        assert len(out.splitlines()) == 1 + len(thetas) - len(lines)

    def test_unreadable_input_exits_2(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "sweep", "--n", "5",
            "--input", str(tmp_path / "missing.csv"),
            "--label", "12345", "--out", "-",
        )
        assert code == 2

    def test_input_that_is_not_utf8_exits_2(self, tmp_path):
        """A file that does not decode is a file error, not a crash: run as a
        fresh process so an escaping traceback would show on stderr."""
        src = tmp_path / "latin.csv"
        src.write_bytes(b"2pi/5,2pi/5,2pi/5,2pi/5,2pi/5\n\xff\xfe,1\n")
        proc = fresh("-m", "polymod.cli", "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "polymod-error/1"
        assert doc["error"] == "OutOfRange"
        assert doc["message"].startswith(f"cannot read input file {str(src)!r}: ")
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "first", ["2pi/5,2pi/5,2pi/5,2pi/5,2pi/5", "theta1,theta2,theta3,theta4,theta5"]
    )
    def test_a_byte_order_mark_is_not_data(self, capsys, tmp_path, first):
        """A file saved as "CSV UTF-8" starts with a BOM; it used to make
        row 1 an unparsable token, losing a data row."""
        src = tmp_path / "bom.csv"
        src.write_bytes(
            b"\xef\xbb\xbf" + f"{first}\n0.9,1.4,1.2,1.5,1.2831853071795865\n".encode()
        )
        code, out, err = run(capsys, "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == (3 if first[0] == "2" else 2)

    def test_an_unwritable_out_fails_before_any_work(self, capsys, tmp_path):
        """--out is opened as soon as the input is opened: a path that cannot
        be written exits 2 before any row is read, so row 3 is not reported."""
        src = tmp_path / "thetas.csv"
        src.write_text(SWEEP_ROWS, encoding="utf-8")
        out = tmp_path / "missing" / "shapes.csv"
        code, doc, err = run_json(
            capsys, "sweep", "--n", "5", "--input", str(src), "--out", str(out)
        )
        assert (code, doc["error"], err) == (2, "OutOfRange", "")
        assert doc["message"].startswith(f"cannot write output file {str(out)!r}: ")

    def test_an_unreadable_input_leaves_the_output_file_alone(self, capsys, tmp_path):
        out = tmp_path / "shapes.csv"
        out.write_text("kept\n", encoding="utf-8")
        code, doc, _ = run_json(
            capsys, "sweep", "--n", "5", "--input", str(tmp_path / "missing.csv"), "--out", str(out)
        )
        assert (code, doc["error"]) == (2, "OutOfRange")
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_a_row_whose_sum_overflows_is_reported(self, capsys, tmp_path):
        """math.fsum raised OverflowError on it, ending the run in a traceback."""
        src = tmp_path / "huge.csv"
        src.write_text("1e308,1e308,1.0,1.0,1.0\n" + SWEEP_ROWS, encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert code == 0
        assert err.startswith("row 1: SumMismatch: sum(theta) = inf differs from 2*pi by inf")
        assert len(out.splitlines()) == 3

    def test_a_non_finite_value_stops_the_run_at_its_row(self, capsys, tmp_path, monkeypatch):
        """The gates keep every mapped value finite; were one not, the run
        would stop at its row with OutOfRange, the earlier rows reported, as
        serializing the rows one at a time did."""
        from polymod import moduli

        original = moduli.forward_params

        def forward_params(n, theta, labels):
            params, errors = original(n, theta, labels)
            params[1, 0] = math.inf  # row 4 of SWEEP_ROWS
            return params, errors

        monkeypatch.setattr(moduli, "forward_params", forward_params)
        src = tmp_path / "thetas.csv"
        src.write_text(SWEEP_ROWS + "bad,2,2,2,2\n", encoding="utf-8")
        code, doc, err = run_json(capsys, "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert (code, doc["error"]) == (2, "OutOfRange")
        assert doc["message"] == "cannot serialize non-finite float inf"
        assert err == "row 3: OutOfRange: angle token 'bad' contains unsupported characters\n"

    @pytest.mark.parametrize("n", [5, 6])
    def test_stdout_and_stderr_equal_the_one_row_oracle(self, capsys, tmp_path, n):
        """Near-boundary rows, planted bad rows on both sides of a chunk
        boundary, a blank line and a header: sweep prints what mapping the
        rows one at a time prints."""
        word = tuple(range(1, n + 1))[::-1]
        thetas = boundary_weights(n, np.random.default_rng(70 + n), 2 * sweep.SWEEP_CHUNK + 40)
        rows = [",".join(map(repr, theta.theta)) for theta in thetas]
        rest = repr((2 * math.pi - 3.2) / (n - 2))
        planted = {
            sweep.SWEEP_CHUNK - 2: ",".join(["1.0"] * n),  # SumMismatch
            sweep.SWEEP_CHUNK - 1: "abc," + rows[0].partition(",")[2],  # OutOfRange
            sweep.SWEEP_CHUNK: ",".join(["1.6", "1.6"] + [rest] * (n - 2)),  # PairSumTooLarge
            sweep.SWEEP_CHUNK + 1: "-" + rows[1],  # NonPositive
            sweep.SWEEP_CHUNK + 3: f"{n}x2pi/{n}",
            sweep.SWEEP_CHUNK + 5: ",".join(rows[2].split(",")[:-1]),  # too few angles
            sweep.SWEEP_CHUNK + 7: rows[3].replace(",", ", "),
        }
        for k, text in planted.items():
            rows[k] = text
        lines = [",".join(f"theta{i}" for i in range(1, n + 1))] + rows[:9] + [""] + rows[9:]
        src = tmp_path / "rows.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys, "sweep", "--n", str(n), "--input", str(src),
            "--label", "".join(map(str, word)), "--out", "-",
        )
        assert code == 0
        want_out, want_err = sweep_one_row_at_a_time(n, word, lines)
        assert err == want_err
        assert out == want_out
        reported = re.findall(r"^row \d+: (\w+): ", err, flags=re.M)
        classes = {"SignatureMismatch", "SumMismatch", "OutOfRange", "PairSumTooLarge", "NonPositive"}
        assert classes <= set(reported)

    @pytest.mark.parametrize("name", EDGE_FILES)
    def test_an_edge_file_equals_the_one_row_oracle(self, capsys, tmp_path, name):
        """The input is read line by line, and each line split as
        ``str.splitlines`` splits the whole decoded text: row numbers, the
        header and the chunk edges are those of the whole file."""
        raw = EDGE_FILES[name]()
        src = tmp_path / "rows.csv"
        src.write_bytes(raw)
        code, out, err = run(capsys, "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert code == 0
        lines = raw.decode("utf-8-sig").splitlines()
        assert (out, err) == sweep_one_row_at_a_time(5, (1, 2, 3, 4, 5), lines)

    def test_memory_does_not_grow_with_the_row_count(self, capsys, tmp_path):
        """``sweep`` holds one chunk at a time, and reference counting alone
        frees it, failed rows included: its peak allocation on 8,000 rows is
        that on 2,000 with the cycle collector off.  Holding the file made it
        2.6 times; a stored error whose traceback held the frame of
        ``parse_rows`` or ``_validate_rows`` kept a chunk in a cycle."""
        planted = ["abc,1,1,1,1,1", "1.0,2.0", "2(3),1,1,1,1,1", "1e308,1e308", "1,1,1,1,1,1"]
        peaks = []
        for count in (2000, 8000):
            rows = valid_rows6(count).splitlines()
            rows[::50] = (planted * count)[: len(rows[::50])]
            src = tmp_path / f"rows{count}.csv"
            src.write_text("\n".join(rows) + "\n", encoding="utf-8")
            argv = ["sweep", "--n", "6", "--input", str(src), "--out", str(tmp_path / "out.csv")]
            gc.disable()
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                gc.enable()
            assert capsys.readouterr().err.count("\n") == len(rows[::50])
        assert peaks[1] <= 1.25 * peaks[0]

    @pytest.mark.parametrize("link", ["same", "symlink", "hardlink"])
    def test_out_naming_the_input_exits_2_and_truncates_nothing(self, capsys, tmp_path, link):
        src = tmp_path / "thetas.csv"
        src.write_text(SWEEP_ROWS, encoding="utf-8")
        out = src if link == "same" else tmp_path / "out.csv"
        if link == "symlink":
            out.symlink_to(src)
        elif link == "hardlink":
            os.link(src, out)
        code, doc, err = run_json(capsys, "sweep", "--n", "5", "--input", str(src), "--out", str(out))
        assert (code, doc["error"], err) == (2, "OutOfRange", "")
        assert doc["message"] == f"cannot write output file {str(out)!r}: it is the input file"
        assert src.read_text(encoding="utf-8") == SWEEP_ROWS

    def test_a_bad_byte_after_600_rows_leaves_the_earlier_chunks_written(self, capsys, tmp_path):
        """A byte that is not UTF-8 is found when the reader reaches it: the
        chunks before it are written, and the message names the last row
        read, since the decoder's position counts from its read-ahead block."""
        src, out = tmp_path / "rows.csv", tmp_path / "out.csv"
        rows = valid_rows6(600)
        src.write_bytes(rows.encode() + b"\xff,1,1,1,1,1\n")
        code, doc, err = run_json(capsys, "sweep", "--n", "6", "--input", str(src), "--out", str(out))
        assert (code, doc["error"], err) == (2, "OutOfRange", "")
        match = re.fullmatch(
            re.escape(f"cannot read input file {str(src)!r}: a byte after row ")
            + r"(\d+) is not UTF-8 \(invalid start byte\)",
            doc["message"],
        )
        last = int(match.group(1))
        assert 2 * sweep.SWEEP_CHUNK <= last <= 600
        want, _ = sweep_one_row_at_a_time(6, (1, 2, 3, 4, 5, 6), rows.splitlines())
        written = 1 + last // sweep.SWEEP_CHUNK * sweep.SWEEP_CHUNK
        assert out.read_text(encoding="utf-8").splitlines() == want.splitlines()[:written]

    def test_an_error_reading_the_input_exits_2(self, capsys, monkeypatch):
        """A read that fails after the file opened, as on a failing disk,
        is a file error like one at open, not a bug."""

        class FailingRead(io.StringIO):
            def __next__(self):
                raise OSError(5, "Input/output error")

        monkeypatch.setattr(cli, "open", lambda path, encoding: FailingRead(), raising=False)
        code, doc, err = run_json(capsys, "sweep", "--n", "5", "--input", "rows.csv", "--out", "-")
        assert (code, doc["error"], err) == (2, "OutOfRange", "")
        assert doc["message"] == "cannot read input file 'rows.csv': [Errno 5] Input/output error"

    def test_a_reader_that_closes_after_one_line_ends_the_run_with_141(self, tmp_path):
        """As ``| head -1`` does: the header arrives, then the closed pipe ends
        the process with 141 and nothing on stderr."""
        src = tmp_path / "rows.csv"
        src.write_text(valid_rows6(3000), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "polymod.cli", "sweep", "--n", "6", "--input", str(src), "--out", "-"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), first, err) == (
            141, b"theta1,theta2,theta3,theta4,theta5,theta6,P,Q,R,type,sign_P,sign_Q,sign_R\n", b""
        )


def sweep_one_row_at_a_time(n, word, lines):
    """stdout and stderr of sweep as the one-row functions give them:
    ``_parse_weight``, psi5/psi6, classify_hexahedron and csv_row."""
    from polymod.jsonio import csv_row
    from polymod.moduli import classify_hexahedron, psi5, psi6

    header = [f"theta{i}" for i in range(1, n + 1)] + ["P", "Q"]
    if n == 6:
        header += ["R", "type", "sign_P", "sign_Q", "sign_R"]
    out, err = [",".join(header)], []
    rows = [(k, text.strip()) for k, text in enumerate(lines, start=1) if text.strip()]
    if rows and rows[0][0] == 1 and all(
        outcome(parse_theta, cell)[0] != "ok" for cell in rows[0][1].split(",")
    ):
        rows = rows[1:]
    for k, text in rows:
        try:
            theta = cli._parse_weight(text, n)
            shape = (psi5 if n == 5 else psi6)(theta, word)
        except PolymodError as exc:
            err.append(f"row {k}: {type(exc).__name__}: {exc}\n")
            continue
        cells = list(theta.theta) + list(shape.params)
        if n == 6:
            cells += [classify_hexahedron(shape)["type"]] + list(shape.signs)
        out.append(csv_row(cells))
    return "\n".join(out) + "\n", "".join(err)


def outcome(fn, *args):
    """("ok", the value with every float as its bits), or the error's class
    and message."""
    try:
        value = fn(*args)
    except PolymodError as exc:
        return type(exc).__name__, str(exc)
    values = value.theta if hasattr(value, "theta") else value
    return "ok", tuple(struct.pack("<d", v) for v in values)


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0.05, 2.0).map(repr),
    st.sampled_from([
        "-0.0", "1", "01", "1_0", "inf", "nan", "1E5", "1e5", "1e999", ".5", "1.", "+1.0",
        " 1.5", "1.5 ", "1. 5", "2pi/5", "5x2pi/5", "2×π/5", "", " ", "abc", "0x1", "1e-400",
    ]),
)


@st.composite
def sweep_rows(draw, n):
    """A stripped CSV row: a weight vector's float literals, in any case
    and with any padding, or cells of any kind and a count near n."""
    if draw(st.booleans()):
        w = draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))
        cells = [repr(2.0 * math.pi * x / math.fsum(w)) for x in w]
        cells = [c.upper() if draw(st.booleans()) else c for c in cells]
        if draw(st.booleans()):
            cells[draw(st.integers(0, n - 1))] = draw(CELLS)
        sep = draw(st.sampled_from([",", ",", ", ", " ,"]))
    else:
        cells = draw(st.lists(CELLS, min_size=n - 1, max_size=n + 1))
        sep = ","
    return sep.join(cells).strip()


#: What ``str.splitlines`` splits at, and a byte-order mark.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\ufeff"]


@st.composite
def sweep_bytes(draw, n):
    """At most 4 KB: any bytes, or a header or row of :func:`sweep_rows`
    and then such rows and any text, each ended by any line break, as UTF-8
    with up to 8 bytes of any kind spliced in."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=4096))
    header = st.sampled_from([",".join(f"theta{i}" for i in range(1, n + 1)), "a,b"])
    first = draw(st.one_of(sweep_rows(n), header))
    rows = draw(st.lists(st.one_of(sweep_rows(n), st.text(max_size=20), header), max_size=30))
    raw = "".join(row + draw(st.sampled_from(BREAKS)) for row in [first, *rows]).encode()
    at = draw(st.integers(0, len(raw)))
    return (raw[:at] + draw(st.binary(max_size=8)) + raw[at:])[:4096]


class TestStackedParse:
    @given(data=st.data(), n=st.sampled_from([5, 6]))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_parse_weight(self, data, n):
        """Every row gets ``_parse_weight``'s angles bit for bit, or its error
        class and message."""
        texts = data.draw(st.lists(sweep_rows(n), min_size=1, max_size=10))
        theta, errors = sweep._validate_rows(parse_rows(texts), n)
        for text, row, error in zip(texts, theta.tolist(), errors):
            got = outcome(lambda: row) if error is None else (type(error).__name__, str(error))
            assert got == outcome(cli._parse_weight, text, n)


# ===========================================================================
# run settings: flags only
# ===========================================================================

EQUAL5_SHAPE = "0.7861513777574233,0.7861513777574233"

#: A settings file that would change ``verify``'s report and ``invert``'s
#: outcome, were it read.
IGNORED_SETTINGS = {"samples": 3, "tol": 0.5}

#: Flag values on both sides of each setting's domain, and text no flag parses.
SETTING_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "1000000", "1000001", str(10**12), str(-(10**30)),
                     "nan", "inf", "-inf", "1e999", "1e-400", "-0.0", "1e-9", "0.5",
                     "2.9", "x", "", "1_0", "0x10"]),
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


def in_domain(name: str, text: str) -> bool:
    """Whether ``--name text`` parses (``float`` or ``int``, without ``_``
    or a non-ASCII character) and lies in the domain of
    :func:`polymod.errors.check_settings`."""
    if "_" in text or not text.isascii():
        return False
    try:
        value = float(text) if name == "tol" else int(text)
    except ValueError:
        return False
    return {
        "tol": lambda v: 0.0 < v < math.inf,
        "samples": lambda v: 1 <= v <= 10**6,
        "seed": lambda v: v >= 0,
        "jobs": lambda v: v >= 1,
    }[name](value)


class TestConfig:
    @pytest.mark.parametrize("command", ["forward", "complex", "sweep", "verify", "invert"])
    def test_commands_without_config_ignore_a_bad_file(
        self, capsys, tmp_path, monkeypatch, command
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}), encoding="utf-8")
        rows = tmp_path / "rows.csv"
        rows.write_text(SWEEP_ROWS, encoding="utf-8")
        monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        argv = {
            "forward": ["--theta", EQUAL5],
            "complex": ["--report", "euler"],
            "sweep": ["--input", str(rows), "--out", "-"],
            "verify": ["--suite", "roundtrip", "--samples", "2"],
            "invert": ["--shape1", EQUAL5_SHAPE, "--shape2", EQUAL5_SHAPE],
        }[command]
        code, _, _ = run(capsys, command, "--n", "5", *argv)
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "all", "--n", "5", "--samples", "150", "--seed", "0"],
            # an inconsistent pair (residual 0.22): exit 4 at the default tol
            ["invert", "--n", "6", "--shape1", "1,1,1.5", "--shape2", "1,1,1"],
        ],
        ids=["verify", "invert"],
    )
    def test_a_settings_file_changes_no_bytes(self, capsys, tmp_path, monkeypatch, argv):
        without = run(capsys, *argv)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(IGNORED_SETTINGS), encoding="utf-8")
        monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        assert run(capsys, *argv) == without
        code, out, err = without
        if argv[0] == "verify":
            digest = hashlib.sha256(f"{out}{err}exit={code}\n".encode()).hexdigest()[:12]
            assert digest == VERIFY_HASHES[5, 0]
        else:
            assert code == 4

    @pytest.mark.parametrize("source", ["flag"])  # the only source of a run setting
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "all", "--n", "5", "--samples", "2"],
            # an inconsistent pair (residual 0.22) that an infinite tol would pass
            ["invert", "--n", "6", "--shape1", "1,1,1.5", "--shape2", "1,1,1"],
        ],
        ids=["verify", "invert"],
    )
    def test_an_infinite_tol_exits_2_before_any_work(self, capsys, monkeypatch, argv, source):
        def no_work(*args, **kwargs):
            raise AssertionError("ran with an infinite tol")

        monkeypatch.setattr(verify, "run_suite", no_work)
        monkeypatch.setattr(fiber, "inversion_report", no_work)
        code, doc, err = run_json(capsys, *argv, "--tol", "inf")
        assert code == 2
        assert doc["error"] == "OutOfRange"
        assert doc["message"] == "tol must be positive and finite, got inf"
        assert err == ""

    @settings(max_examples=150, deadline=None)
    @given(
        command=st.sampled_from(["verify", "invert"]),
        suite=st.sampled_from(["all", "roundtrip", "complex"]),
        flags=st.dictionaries(st.sampled_from(["tol", "samples", "seed", "jobs"]), SETTING_VALUES),
    )
    def test_settings_flags_end_in_a_document_and_only_valid_values_run(
        self, command, suite, flags
    ):
        """Any value of the settings flags exits 0, 1 or 2 with one JSON
        document on stdout, and the engines run only when every given value
        is in its domain, which they then receive."""
        if command == "invert":
            flags = {name: text for name, text in flags.items() if name == "tol"}
        reached = []

        def run_sampled(suites, n, samples, seed, tol, jobs):
            reached.append({"samples": samples, "seed": seed, "tol": tol, "jobs": jobs})
            return {name: {"pass": True} for name in suites}

        def run_complex(n, samples, seed, tol):
            reached.append({"samples": samples, "seed": seed, "tol": tol})
            return {"pass": True}

        def invert_params(n, pairs, tol):
            reached.append({"tol": tol})
            rows = len(pairs)
            return np.full((rows, n), math.pi / 3), np.full(rows, 0.5 + 1j), [0.0] * rows, [None] * rows

        argv = {
            "verify": ["verify", "--suite", suite, "--n", "5"],
            "invert": ["invert", "--n", "6", "--shape1", "1,1,1", "--shape2", "1,1,1"],
        }[command] + [f"--{name}={text}" for name, text in flags.items()]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_run_sampled", run_sampled)
            patch.setattr(verify, "_run_complex", run_complex)
            patch.setattr(fiber, "invert_params", invert_params)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 1, 2)
        assert out.getvalue().count("\n") == 1
        doc = json.loads(out.getvalue())
        assert err.getvalue() == ""
        valid = all(in_domain(name, text) for name, text in flags.items())
        if not valid:
            assert code == 2 and doc["schema"] == "polymod-error/1"
            assert reached == []
            return
        assert code == 0 and reached
        given = {name: (float if name == "tol" else int)(text) for name, text in flags.items()}
        for call in reached:
            for name, value in call.items():
                assert in_domain(name, repr(value))
                if name in given:
                    assert value == given[name]


# ===========================================================================
# usage errors
# ===========================================================================

class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["forward", "--n", "5", "--theta", EQUAL5, "--jobs", "2"],
            ["verify", "--suite", "all", "--n", "7"],
            ["verify", "--suite", "roundtrip", "--n", "5", "--samples", "x"],
            [],
        ],
    )
    def test_usage_error_prints_document_and_exits_2(self, capsys, argv):
        code, doc, err = run_json(capsys, *argv)
        assert code == 2
        assert doc["schema"] == "polymod-error/1"
        assert doc["error"] == "OutOfRange"
        assert err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["invert", "--n", "5", "--shape1", "0.9,0.9,0.9", "--shape2", "0.9,0.9"],
             "shape for n=5 needs 2 comma-separated values, got 3"),
            (["forward", "--n", "5", "--theta", "0x1,5x2pi/5"], "repetition count must be positive in '0x1'"),
            (["forward", "--n", "5", "--theta", EQUAL5, "--label", "123456"], "--label has 6 marks but --n is 5"),
            (["invert", "--n", "6", "--shape1", "1e-200,1,1", "--shape2", "1e-200,1,1"],
             "radii must be positive, got (0.0, 1.0)"),
            (["forward", "--n", "5", "--theta", "1, ,4x1"], "empty angle token in '1, ,4x1'"),
        ],
        ids=["shape-length", "zero-repetition", "label-length", "radius-underflow", "empty-token"],
    )
    def test_an_input_that_fails_its_own_check_exits_2(self, capsys, argv, message):
        """Each input reaches the check written for it: a shape of the wrong
        length, a zero repetition count, a word of the wrong length, a
        radius Q1*Q2 that underflows to 0, and an empty token, named with
        its whole list."""
        code, doc, err = run_json(capsys, *argv)
        assert code == 2
        assert doc == {"schema": "polymod-error/1", "version": 1, "error": "OutOfRange", "message": message}
        assert err == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["invert", "--n", "6", "--shape1", "1_0,1,1", "--shape2", "1,1,1"],
             "cannot parse shape '1_0,1,1'"),
            (["invert", "--n", "5", "--shape1", "\u0660.\u0669,0.9", "--shape2", "0.9,0.9"],
             "cannot parse shape '\u0660.\u0669,0.9'"),
            (["forward", "--n", "5", "--theta", EQUAL5, "--label", "0_1,2,3,4,5"],
             "cannot parse label '0_1,2,3,4,5'"),
            (["forward", "--n", "5", "--theta", EQUAL5, "--label", "\uff11\uff12\uff13\uff14\uff15"],
             "cannot parse label '\uff11\uff12\uff13\uff14\uff15'"),
            (["verify", "--suite", "signature", "--n", "5", "--samples", "\u0663"],
             "cannot parse --samples '\u0663'"),
            (["verify", "--suite", "signature", "--n", "5", "--samples", "3", "--seed", "1_0"],
             "cannot parse --seed '1_0'"),
            (["verify", "--suite", "signature", "--n", "5", "--samples", "3", "--jobs", "\u0661"],
             "cannot parse --jobs '\u0661'"),
            (["invert", "--n", "6", "--shape1", "1,1,1", "--shape2", "1,1,1", "--tol", "\u0661e-9"],
             "cannot parse --tol '\u0661e-9'"),
            (["forward", "--n", "\u0665", "--theta", EQUAL5],
             "polymod forward: argument --n: invalid int value: '\u0665'"),
            (["forward", "--n", "0_5", "--theta", EQUAL5],
             "polymod forward: argument --n: invalid int value: '0_5'"),
            (["invert", "--n", "\uff16", "--shape1", "1,1,1", "--shape2", "1,1,1"],
             "polymod invert: argument --n: invalid int value: '\uff16'"),
            (["complex", "--n", "0_6", "--report", "euler"],
             "polymod complex: argument --n: invalid int value: '0_6'"),
            (["verify", "--suite", "signature", "--n", "\u0665", "--samples", "3"],
             "polymod verify: argument --n: invalid int value: '\u0665'"),
            (["sweep", "--n", "0_5", "--input", "rows.csv", "--out", "-"],
             "polymod sweep: argument --n: invalid int value: '0_5'"),
        ],
        ids=["shape-underscore", "shape-arabic-indic", "label-underscore", "label-fullwidth",
             "samples-arabic-indic", "seed-underscore", "jobs-arabic-indic", "tol-arabic-indic",
             "forward-n-arabic-indic", "forward-n-underscore", "invert-n-fullwidth",
             "complex-n-underscore", "verify-n-arabic-indic", "sweep-n-underscore"],
    )
    def test_a_value_that_no_angle_token_takes_exits_2(self, capsys, argv, message):
        """``int`` and ``float`` read ``_`` separators and any Unicode digit,
        which ``--theta`` refuses: a shape, label, settings or ``--n`` value
        refuses them too, where it ran as P = 10 (exit 3), 0.9, the word
        12345, 3 samples, seed 10, one job, a tol of 1e-9 or n = 5 or 6
        (exit 0)."""
        code, doc, err = run_json(capsys, *argv)
        assert code == 2
        assert doc == {"schema": "polymod-error/1", "version": 1, "error": "OutOfRange", "message": message}
        assert err == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--samples" in capsys.readouterr().out


# ===========================================================================
# the error contract under hostile argv
# ===========================================================================

#: Tokens that each flag value may be: empty, non-finite, overflowing, a
#: signed zero, an underscore, Arabic-Indic and fullwidth digits, a call,
#: and a 1,001-character expression.
HOSTILE = ["", "nan", "1e999", "-0", "1_0", "\u0663.\u0665", "\uff11\uff12\uff13\uff14\uff15", "2(3)",
           "+".join(["1"] * 501)]
THETA5 = "1.1,1.3,0.9,1.5,1.4831853071795865"  # not the equal weight: cusps exit 5


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory) -> dict:
    """Input and output paths for ``sweep``: a CSV with one bad row, a file
    that is not UTF-8, a missing path, a directory and a file to write."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "rows.csv").write_text("theta1\n" + ",".join(["1.2566370614359172"] * 5) + "\n2(3)\n")
    (root / "latin1.csv").write_bytes(b"1,2\xff\n")
    return {"input": [str(root / name) for name in ("rows.csv", "latin1.csv", "missing.csv")],
            "out": ["-", str(root / "out.csv"), str(root)]}


@st.composite
def fuzz_argv(draw, files: dict) -> list[str]:
    """An argv of one of the five commands with every flag valid for its
    ``--n`` but at most two, each of which is absent or hostile.
    ``--samples`` stays at most 20 and ``--jobs`` is 1 or invalid (no
    hostile value reads as a number above 1), so no pool starts; ``--out``
    names only the fixture's paths."""
    n = draw(st.sampled_from(["5", "6"]))
    tol, usual = ["1e-9", "1e-300"], [None, *HOSTILE]
    thetas = {"5": [EQUAL5, THETA5], "6": [EQUAL6]}[n]
    words = {"5": ["12345", "21435"], "6": ["123456", "214356"]}[n]
    shape1, shape2 = zip(*{"5": [("0.9,0.9",) * 2],
                           "6": [("1,1,1",) * 2, ("1,1e-200,1",) * 2, (R_CORRUPT_S1, R_CORRUPT_S2)]}[n])
    flags = {  # per flag, its valid values and its spoiled ones
        "forward": {"--theta": (thetas, usual), "--label": (words, usual)},
        "invert": {"--shape1": (shape1, usual), "--shape2": (shape2, usual), "--tol": (tol, usual)},
        "complex": {"--theta": (thetas, usual),
                    "--report": (["euler", "cusps", "pairings", "singular"], usual)},
        "verify": {"--suite": (SUITES, usual), "--tol": (tol, usual), "--seed": (["0", "7"], usual),
                   "--samples": (["1", "20"], HOSTILE), "--jobs": (["1"], usual)},
        "sweep": {"--input": (files["input"][:1], files["input"][1:] + usual),
                  "--label": (words, usual), "--out": (files["out"][:2], [None, files["out"][2]])},
    }
    command = draw(st.sampled_from(sorted(flags)))
    options = {"--n": ([n], usual), **flags[command]}
    spoiled = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    argv = [command]
    for flag, (valid, spoil) in options.items():
        value = draw(st.sampled_from(spoil if flag in spoiled else valid))
        argv += [] if value is None else [flag, value]
    return argv


SETTING_FLAGS = ("--n", "--tol", "--samples", "--seed", "--jobs")


def run_under_contract(argv: list[str]) -> int:
    """``cli.main(argv)``'s exit code, once it is checked against the error
    contract: 0 to 5, never 6; codes 2 to 5 print one ``polymod-error/1``
    document and nothing else on stdout, naming a class whose documented
    code is the exit code; and no traceback reaches stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in range(6), (argv, out.getvalue())
    assert "Traceback" not in err.getvalue()
    if code >= 2:
        assert out.getvalue().count("\n") == 1, argv
        doc = json.loads(out.getvalue())
        assert doc["schema"] == "polymod-error/1"
        assert getattr(polymod.errors, doc["error"]).exit_code == code
    else:
        assert "polymod-error/1" not in out.getvalue()
    return code


class TestErrorContract:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hostile_argv_exits_0_to_5_with_one_document_and_no_traceback(self, fuzz_files, data):
        """Every command and flag, each value valid, hostile or absent: the
        exit code is 0 to 5, never 6; codes 2 to 5 print one
        ``polymod-error/1`` document and nothing else on stdout, naming a
        class whose documented code is the exit code; and no traceback
        reaches stderr."""
        argv = data.draw(fuzz_argv(fuzz_files))
        code = run_under_contract(argv)
        values = [value for flag, value in zip(argv, argv[1:]) if flag in SETTING_FLAGS]
        if any("_" in value or not value.isascii() for value in values):
            assert code == 2, argv

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["forward", "invert", "sweep"]), n=st.sampled_from(["5", "6"]),
           data=st.data())
    def test_label_and_shape_bytes_exit_0_to_5_with_one_document(self, fuzz_files, command, n, data):
        """``--label``, ``--shape1`` or ``--shape2`` as argv delivers it: up
        to 48 bytes decoded by ``os.fsdecode``, an undecodable byte as a
        lone surrogate.  The other flags are valid; the error contract holds."""
        value = os.fsdecode(data.draw(st.binary(max_size=48)))
        shape = {"5": "0.9,0.9", "6": "1,1,1"}[n]
        argv = {
            "forward": ["--theta", {"5": EQUAL5, "6": EQUAL6}[n], "--label", value],
            "invert": ["--shape1", value, "--shape2", shape] if data.draw(st.booleans())
            else ["--shape1", shape, "--shape2", value],
            "sweep": ["--input", fuzz_files["input"][0], "--label", value, "--out", fuzz_files["out"][1]],
        }[command]
        run_under_contract([command, "--n", n, *argv])

    def test_an_undecodable_label_byte_exits_2_in_a_fresh_process(self):
        """Byte 0xff in ``--label`` reaches ``main`` as a lone surrogate: one
        document on stdout, exit 2, nothing on stderr."""
        proc = fresh("-m", "polymod.cli", "forward", "--n", "5", "--theta", EQUAL5,
                     "--label", os.fsdecode(b"12\xff45"))
        assert (proc.returncode, proc.stderr) == (2, "")
        doc = json.loads(proc.stdout)
        assert (doc["schema"], doc["error"]) == ("polymod-error/1", "OutOfRange")
        assert doc["message"] == "cannot parse label '12\\udcff45'"

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([5, 6]), data=st.data())
    def test_any_input_bytes_exit_0_or_2_with_row_lines_and_one_document(self, fuzz_files, n, data):
        """Up to 4 KB of bytes as a ``sweep`` input file: the run exits 0 or
        2 and prints no traceback; each stderr line reports one row as
        ``row N: Class: message``, and exit 2 prints one ``polymod-error/1``
        document.  An input that is UTF-8 gets the one-row oracle's output,
        row 1 a header exactly when no cell of it parses."""
        raw = data.draw(sweep_bytes(n))
        src, dst = os.path.join(fuzz_files["out"][2], "fuzz.csv"), fuzz_files["out"][1]
        with open(src, "wb") as fh:
            fh.write(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--n", str(n), "--input", src, "--out", dst])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        *lines, last = err.getvalue().split("\n")
        assert last == ""
        for line in lines:
            row = re.fullmatch(r"row \d+: (\w+): .+", line)
            assert row and issubclass(getattr(polymod.errors, row[1]), PolymodError), line
        if code == 2:
            assert out.getvalue().count("\n") == 1
            doc = json.loads(out.getvalue())
            assert (doc["schema"], doc["error"]) == ("polymod-error/1", "OutOfRange")
            return
        assert out.getvalue() == ""
        with open(dst, encoding="utf-8") as fh:
            got = fh.read(), err.getvalue()
        assert got == sweep_one_row_at_a_time(n, tuple(range(1, n + 1)), raw.decode("utf-8-sig").splitlines())


# ===========================================================================
# output discipline
# ===========================================================================

class TestOutputDiscipline:
    def test_floats_carry_full_precision(self, capsys):
        _, out, _ = run(
            capsys, "forward", "--n", "5", "--theta", EQUAL5, "--label", "12345"
        )
        assert "0.78615137775742328" in out

    def test_single_json_line_on_stdout(self, capsys):
        _, out, _ = run(
            capsys, "complex", "--n", "5", "--report", "euler"
        )
        assert out.endswith("\n")
        assert len(out.strip().splitlines()) == 1


# ===========================================================================
# the process entry
# ===========================================================================

def valid_rows6(count: int) -> str:
    """``count`` valid n=6 float-literal rows."""
    w = np.random.default_rng(6).uniform(0.8, 1.2, (count, 6))
    rows = (2 * math.pi * w / w.sum(axis=1, keepdims=True)).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


#: id: a command line, with ``{input}`` a file of 3,000 valid n=6 rows
PROCESS_COMMANDS = {
    "verify": "verify --suite all --n 5 --samples 40 --seed 3",
    "sweep": "sweep --n 6 --input {input} --out -",
    "forward": f"forward --n 6 --theta {EQUAL6}",
    "error-row": "forward --n 5 --theta 1,1,1,1.5,1.7831853071795865",
}


class TestProcessEntry:
    @pytest.fixture
    def argv(self, tmp_path, request):
        source = tmp_path / "rows.csv"
        source.write_text(valid_rows6(3000), encoding="utf-8")
        return [arg.format(input=source) for arg in PROCESS_COMMANDS[request.param].split()]

    @pytest.mark.parametrize("argv", PROCESS_COMMANDS, indirect=True)
    def test_a_fresh_process_prints_the_in_process_bytes_and_code(self, capsys, argv):
        """``python -m polymod.cli`` goes through the process entry; its
        stdout, stderr and exit code are those of ``main`` in process, and
        ``main`` freezes no object for the collector and sets no
        environment variable."""
        frozen, environ = gc.get_freeze_count(), dict(os.environ)
        in_process = run(capsys, *argv)
        assert (gc.get_freeze_count(), dict(os.environ)) == (frozen, environ)
        proc = fresh("-m", "polymod.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process

    @pytest.mark.parametrize("argv", ["verify", "sweep"], indirect=True)
    def test_a_closed_stdout_exits_141_and_prints_nothing(self, argv):
        """The reader of stdout is gone before the command writes, as after
        ``| head``: no traceback, and not exit 1, a failed suite's code."""
        read, write = os.pipe()
        os.close(read)
        try:
            proc = fresh("-m", "polymod.cli", *argv, stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")

    @pytest.mark.parametrize("given, seen", [("unset", "1"), ("2", "2")])
    def test_openblas_gets_one_thread_unless_a_count_is_given(self, given, seen):
        """The entry sets ``OPENBLAS_NUM_THREADS`` to 1 when it is unset,
        before ``main`` runs and numpy loads; a count that is given stays."""
        probe = (
            "import os, sys\n"
            "if sys.argv[1] == 'unset':\n    os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "from polymod import cli\n"
            "cli.main = lambda: print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules) or 0\n"
            "cli._process_entry()\n"
        )
        proc = fresh("-c", probe, given, OPENBLAS_NUM_THREADS="2")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{seen} False\n", "")

    def test_the_console_script_is_the_module_entry(self):
        """``polymod`` and ``python -m polymod.cli`` run one function."""
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^polymod = "polymod\.cli:(\w+)"$', pyproject, re.M).group(1)
        source = (SRC / "polymod" / "cli.py").read_text(encoding="utf-8")
        assert source.endswith(f'if __name__ == "__main__":\n    {target}()\n')
        assert callable(getattr(cli, target))
