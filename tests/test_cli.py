"""End-to-end tests for the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polymod import cli, verify
from polymod.combinatorics import sample_weight_rng
from polymod.errors import RouteDisagreement

from lorentz_oracle import boundary_weights

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
        env = {k: v for k, v in os.environ.items() if k != "POLYMOD_CONFIG"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "polymod.cli", "forward", "--n", "5",
             "--theta", f"{token},1,1,1,1", "--label", "12345"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "polymod-error/1"
        assert doc["error"] == "OutOfRange"
        assert proc.stderr == ""


    @pytest.mark.parametrize("count", ["1" * 5000, "9", "0009"], ids=["5000-digits", "9", "0009"])
    def test_large_repetition_count_exits_2(self, count):
        """Counts above the bound are rejected before conversion or expansion."""
        env = {k: v for k, v in os.environ.items() if k != "POLYMOD_CONFIG"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "polymod.cli", "forward", "--n", "5",
             "--theta", f"{count}x1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert doc["error"] == "OutOfRange"
        assert "exceeds 8" in doc["message"]
        assert proc.stderr == ""


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
        original = verify.forward_shapes

        def forward_shapes(n, thetas, labels):
            shapes = original(n, thetas, labels)
            return [
                RouteDisagreement("planted") if theta == bad else shape
                for theta, shape in zip(thetas, shapes)
            ]

        monkeypatch.setattr(verify, "forward_shapes", forward_shapes)
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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, monkeypatch, source):
        argv = ["verify", "--suite", "all", "--n", "5", "--samples", "2"]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
            monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        code, doc, err = run_json(capsys, *argv)
        assert code == 2
        assert doc["schema"] == "polymod-error/1"
        assert doc["message"] == "seed must be non-negative, got -1"
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


# ===========================================================================
# config file
# ===========================================================================

class TestConfig:
    def test_config_file_sets_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 9, "seed": 4}), encoding="utf-8")
        monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5"
        )
        assert code == 0
        assert doc["samples"] == 9
        assert doc["seed"] == 4

    def test_flags_override_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 9}), encoding="utf-8")
        monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5",
            "--samples", "12",
        )
        assert code == 0
        assert doc["samples"] == 12

    @pytest.mark.parametrize("command", ["forward", "complex", "sweep"])
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
        }[command]
        code, _, _ = run(capsys, command, "--n", "5", *argv)
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "roundtrip", "--n", "5", "--samples", "2"],
            ["invert", "--n", "6", "--shape1", "1,1,1", "--shape2", "1,1,1"],
        ],
    )
    def test_commands_with_config_reject_a_bad_file(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}), encoding="utf-8")
        monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        code, doc, _ = run_json(capsys, *argv)
        assert code == 2
        assert doc["message"] == "jobs must be >= 1, got 0"

    def test_invert_rejects_a_negative_seed(self, capsys, tmp_path, monkeypatch):
        """``invert`` validates the whole file, as ``verify`` does."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        code, doc, err = run_json(
            capsys, "invert", "--n", "6", "--shape1", "1,1,1", "--shape2", "1,1,1"
        )
        assert code == 2
        assert doc["schema"] == "polymod-error/1"
        assert doc["message"] == "seed must be non-negative, got -1"
        assert err == ""

    def test_unknown_key_exits_2(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample": 9}), encoding="utf-8")
        monkeypatch.setenv("POLYMOD_CONFIG", str(cfg))
        code, doc, _ = run_json(
            capsys, "verify", "--suite", "roundtrip", "--n", "5"
        )
        assert code == 2
        assert doc["error"] == "OutOfRange"


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
