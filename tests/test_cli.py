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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polymod import cli, fiber, psi5, psi6, validate_weight, verify
from polymod.combinatorics import sample_weight_rng
from polymod.errors import PolymodError, RouteDisagreement
from polymod.jsonio import parse_rows, parse_theta

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
        """``2(3)`` compiles with a SyntaxWarning: neither ``forward`` nor
        ``sweep`` (which parses row 1 twice, once for header detection) may
        print it.  Fresh processes, since a warning prints once per process."""
        theta = "2(3),1,1,1,1"
        forward = fresh("-m", "polymod.cli", "forward", "--n", "5", "--theta", theta)
        assert forward.returncode == 2
        doc = json.loads(forward.stdout)
        assert doc["error"] == "OutOfRange"
        assert doc["message"] == "cannot parse angle token '2(3)': 'int' object is not callable"
        assert forward.stderr == ""

        src = tmp_path / "rows.csv"
        src.write_text(f"{theta}\n{EQUAL5}\n", encoding="utf-8")
        sweep = fresh("-m", "polymod.cli", "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert sweep.returncode == 0
        assert len(sweep.stdout.splitlines()) == 2
        assert sweep.stderr == f"row 1: OutOfRange: {doc['message']}\n"

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
        ],
    )
    def test_a_parameter_beyond_the_double_range_exits_with_a_document(
        self, capsys, shape1, shape2, code, error, message
    ):
        """A square that overflows, in either shape, is an input error; a
        product Q1*Q2 that underflows to 0 is an infinite circle radius, so
        the circles do not meet.  Neither prints a traceback."""
        got, doc, err = run_json(
            capsys, "invert", "--n", "6", "--shape1", shape1, "--shape2", shape2
        )
        assert (got, doc["schema"], doc["error"]) == (code, "polymod-error/1", error)
        assert doc["message"].startswith(message)
        assert err == ""


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
        bad = sample_weight_rng(5, np.random.default_rng([7, 3]))
        original = fiber.forward_params

        def forward_params(n, theta, labels):
            params, errors = original(n, theta, labels)
            return params, [
                RouteDisagreement("planted") if row == list(bad.theta) else e
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
        """--out is opened once the input is read: a path that cannot be
        written exits 2 before any row is mapped, so row 3 is not reported."""
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

    def test_row_one_is_parsed_once(self, capsys, tmp_path, monkeypatch):
        """Header detection parses each cell of row 1, and that parse is the
        row's: parse_theta never sees the whole row."""
        from polymod import jsonio

        calls = []
        original = jsonio.parse_theta

        def parse_theta(spec):
            calls.append(spec)
            return original(spec)

        for module in (jsonio, cli):
            monkeypatch.setattr(module, "parse_theta", parse_theta)
        src = tmp_path / "one.csv"
        src.write_text("2pi/5,2pi/5,2pi/5,2pi/5,2pi/5\n", encoding="utf-8")
        code, out, err = run(capsys, "sweep", "--n", "5", "--input", str(src), "--out", "-")
        assert (code, err, len(out.splitlines())) == (0, "", 2)
        assert calls == ["2pi/5"] * 5

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
        thetas = boundary_weights(n, np.random.default_rng(70 + n), 2 * cli.SWEEP_CHUNK + 40)
        rows = [",".join(map(repr, theta.theta)) for theta in thetas]
        rest = repr((2 * math.pi - 3.2) / (n - 2))
        planted = {
            cli.SWEEP_CHUNK - 2: ",".join(["1.0"] * n),  # SumMismatch
            cli.SWEEP_CHUNK - 1: "abc," + rows[0].partition(",")[2],  # OutOfRange
            cli.SWEEP_CHUNK: ",".join(["1.6", "1.6"] + [rest] * (n - 2)),  # PairSumTooLarge
            cli.SWEEP_CHUNK + 1: "-" + rows[1],  # NonPositive
            cli.SWEEP_CHUNK + 3: f"{n}x2pi/{n}",
            cli.SWEEP_CHUNK + 5: ",".join(rows[2].split(",")[:-1]),  # too few angles
            cli.SWEEP_CHUNK + 7: rows[3].replace(",", ", "),
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


class TestStackedParse:
    @given(data=st.data(), n=st.sampled_from([5, 6]))
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_parse_weight(self, data, n):
        """Every row gets ``_parse_weight``'s angles bit for bit, or its error
        class and message; so does row 1 parsed cell by cell, unless no cell
        parses and it is a header."""
        texts = data.draw(st.lists(sweep_rows(n), min_size=1, max_size=10))
        theta, errors = cli._validate_rows(parse_rows(texts, n), n)
        for text, row, error in zip(texts, theta.tolist(), errors):
            got = outcome(lambda: row) if error is None else (type(error).__name__, str(error))
            assert got == outcome(cli._parse_weight, text, n)
        first = cli._row_one(texts[0], n)
        if first is None:
            assert all(outcome(parse_theta, cell)[0] != "ok" for cell in texts[0].split(","))
        else:
            theta, errors = cli._validate_rows([first], n)
            got = outcome(lambda: theta[0].tolist()) if errors[0] is None else (
                type(errors[0]).__name__, str(errors[0])
            )
            assert got == outcome(cli._parse_weight, texts[0], n)


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
    """Whether ``--name text`` parses as argparse parses it and lies in the
    domain of :func:`polymod.errors.check_settings`."""
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

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--samples" in capsys.readouterr().out


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
        ``main`` freezes no object for the collector."""
        frozen = gc.get_freeze_count()
        in_process = run(capsys, *argv)
        assert gc.get_freeze_count() == frozen
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

    def test_the_console_script_is_the_module_entry(self):
        """``polymod`` and ``python -m polymod.cli`` run one function."""
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^polymod = "polymod\.cli:(\w+)"$', pyproject, re.M).group(1)
        source = (SRC / "polymod" / "cli.py").read_text(encoding="utf-8")
        assert source.endswith(f'if __name__ == "__main__":\n    {target}()\n')
        assert callable(getattr(cli, target))
