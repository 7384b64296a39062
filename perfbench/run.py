"""polymod benchmark: one workload of ``polymod`` command-line invocations.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``verify`` ``polymod verify --suite all`` for n=5 and n=6 at ``--jobs 1``,
  then once more, untimed, at ``--jobs 2``, which must print the same bytes;
* ``sweep``  ``polymod sweep`` over generated CSVs with planted bad rows;
* ``cli``    a fixed mix of short ``forward``, ``invert`` and ``complex``
  invocations, some of which must fail with codes 2 to 5.

The program is run from ``src/`` as ``python3 -m polymod.cli`` in fresh
processes by one client in a closed loop.  Every output is checked; a wrong
output counts as a failed operation and makes the command exit 1.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` one batch runs untraced and then under ``perfbench/tracer.py``,
and the last line holds the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from tracer import TRACED

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORKLOADS = ("verify", "sweep", "cli")
#: What one operation of ``ops_per_s`` is on each workload.
OPS_NAMES = {
    "verify": "trials_per_s",
    "sweep": "rows_per_s",
    "cli": "invocations_per_s",
}

# Per n, sized so both commands of a cycle take about as long (about 2 s
# each on a 2-core machine), which keeps the latency distribution unimodal
# and start-up near 12% of an invocation.
VERIFY_SAMPLES = {5: 150, 6: 190}
SAMPLED_SUITES = ("roundtrip", "orthogonality", "signature", "crossroute")
SWEEP_ROWS = {5: 1500, 6: 1200}
PLANTED_EVERY = 25  # one planted bad row in every 25 data rows
ROUNDTRIP_EVERY = 60  # every 60th valid sweep row is inverted again
CLI_MIN_INVOCATIONS = 100  # p90 keeps ten samples beyond it
SETUP_SAMPLES = 9  # set-up and probe timings, spread over the run
IDENTITY = {5: (1, 2, 3, 4, 5), 6: (1, 2, 3, 4, 5, 6)}
SWAPPED = {5: (2, 1, 4, 3, 5), 6: (2, 1, 4, 3, 5, 6)}
TWO_PI = 2.0 * math.pi

# Set-up time: ``import polymod.cli`` in a fresh interpreter.
SETUP_CODE = """
import time
t = time.perf_counter()
import polymod.cli
print(repr(time.perf_counter() - t))
"""

# Machine-speed probe, run in its own fresh interpreter without polymod on
# the path: import numpy, then small dense linear algebra and float loops.
# Import and kernel work are what the program's timings are made of, and
# they slow down together when other tenants load the host.
PROBE_CODE = """
import time
t = time.perf_counter()
import numpy as np
a = np.arange(1.0, 17.0).reshape(4, 4)
a = a @ a.T + np.eye(4)
acc = 0.0
for i in range(600):
    acc += float(np.linalg.eigvalsh(a)[0]) + float(np.linalg.solve(a, a[0])[0])
    acc += sum(k * 0.5 for k in range(300))
print(repr(time.perf_counter() - t))
"""

#: About the probe's time on the 2-core machine the benchmark was defined
#: on, when quiet.  A run's timings are scaled to this speed by the run's
#: slowdown, its median probe time over PROBE_REF_S.
PROBE_REF_S = 0.1


# --------------------------------------------------------------------------- #
# running the program
# --------------------------------------------------------------------------- #

@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    spans: dict | None = None


@dataclass
class Op:
    """One program invocation, the operations it carries, and its check.

    ``check`` returns how many of the ``ops`` operations came out wrong.  The
    first checked result becomes the reference: every later invocation of the
    same Op (another cycle, the traced run, or the same suite at ``--jobs 2``)
    must reproduce its exit code and stdout byte for byte.
    """

    argv: list[str]
    ops: int
    check: Callable[[Result], int]
    reference: tuple[int, str] | None = None
    reference_failed: int = 0

    def failed(self, res: Result) -> int:
        if self.reference is None:
            self.reference = (res.code, res.stdout)
            self.reference_failed = self.check(res)
        elif (res.code, res.stdout) != self.reference:
            return self.ops
        return self.reference_failed


def run_process(cmd: list[str], env: dict, timeout: float) -> tuple[int, str, str]:
    """Run ``cmd`` to completion in its own process group.

    On timeout the whole group, pool workers included, is killed and reaped
    before ``TimeoutExpired`` propagates, so no process outlives the run.
    """
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err


class Runner:
    def __init__(self, workdir: Path):
        self.env = {k: v for k, v in os.environ.items() if k != "POLYMOD_CONFIG"}
        self.env["PYTHONPATH"] = str(SRC)
        self.spans_path = workdir / "spans.json"

    def invoke(self, argv: list[str], trace: bool = False) -> Result:
        if trace:
            cmd = [sys.executable, str(TRACER), *argv]
            env = dict(self.env, PERFBENCH_SPANS=str(self.spans_path))
        else:
            cmd = [sys.executable, "-m", "polymod.cli", *argv]
            env = self.env
        start = time.perf_counter()
        code, out, err = run_process(cmd, env, timeout=120)
        wall = time.perf_counter() - start
        spans = None
        if trace:
            spans = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.spans_path.unlink()
        return Result(code, out, err, wall, spans)

    def timed_code(self, code: str, env: dict) -> float:
        """Run ``code`` in a fresh interpreter; it prints its own timing."""
        status, out, err = run_process([sys.executable, "-c", code], env, timeout=60)
        if status != 0:
            raise RuntimeError(f"timing subprocess failed:\n{err}")
        return float(out)

    def setup_sample(self) -> tuple[float, float]:
        """(import time of polymod.cli, probe time), each in a fresh interpreter."""
        probe_env = {k: v for k, v in self.env.items() if k != "PYTHONPATH"}
        return self.timed_code(SETUP_CODE, self.env), self.timed_code(PROBE_CODE, probe_env)


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #

def weight_vector(rng: random.Random, n: int) -> list[float]:
    """A weight vector kept away from every boundary the checks depend on.

    Angles stay above 0.15, pair sums below pi - 0.15, and for n=6 every
    triple sum at least 1e-3 away from pi, so the sign rule is never decided
    inside the ideal band.
    """
    while True:
        x = [1.0 + rng.uniform(-0.55, 0.55) for _ in range(n)]
        total = sum(x)
        theta = [TWO_PI * v / total for v in x]
        top = sorted(theta)[-2:]
        if min(theta) <= 0.15 or top[0] + top[1] >= math.pi - 0.15:
            continue
        if n == 6 and any(
            abs(theta[i] + theta[j] + theta[k] - math.pi) < 1e-3
            for i in range(6) for j in range(i + 1, 6) for k in range(j + 1, 6)
        ):
            continue
        return theta


def fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def pair_sum_too_large(rng: random.Random, n: int) -> list[float]:
    a = 1.6 + rng.uniform(0.0, 0.2)
    b = 1.6 + rng.uniform(0.0, 0.2)
    rest = (TWO_PI - a - b) / (n - 2)
    return [a, b] + [rest] * (n - 2)


def triple_sums(theta, word) -> tuple[float, float, float]:
    t = [theta[m - 1] for m in word]
    return (t[4] + t[5] + t[0], t[0] + t[1] + t[2], t[2] + t[3] + t[4])


def sign(x: float) -> int:
    return (x > 0) - (x < 0)


def close(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


# --------------------------------------------------------------------------- #
# workload: verify
# --------------------------------------------------------------------------- #

COMPLEX_COUNTS = {
    5: {"cells": 12, "pairings": 30, "vertex_classes": 15, "euler_characteristic": -3},
    6: {"cells": 60, "pairings": 180, "cusp_classes": 10},
}


def verify_op(n: int, seed: int, jobs: int) -> Op:
    samples = VERIFY_SAMPLES[n]
    trials = len(SAMPLED_SUITES) * samples

    def check(res: Result) -> int:
        try:
            doc = json.loads(res.stdout)
            reports = doc["reports"]
            header_ok = (
                res.code == (0 if doc["pass"] is True else 1)
                and doc["schema"] == "polymod-verify/1"
                and doc["suite"] == "all"
                and doc["n"] == n
                and doc["samples"] == samples
                and reports["complex"]["pass"] is True
                and reports["complex"]["counts"] == COMPLEX_COUNTS[n]
            )
            bad = sum(
                max(len(reports[s]["failures"]), reports[s]["pass"] is not True)
                for s in SAMPLED_SUITES
            )
        except (ValueError, KeyError, TypeError):
            return trials
        if not header_ok:
            return trials
        return min(max(bad, doc["pass"] is not True), trials)

    argv = [
        "verify", "--suite", "all", "--n", str(n), "--samples", str(samples),
        "--seed", str(seed), "--jobs", str(jobs),
    ]
    return Op(argv, trials, check)


def verify_cycle(rng: random.Random, jobs: int) -> list[Op]:
    seed = rng.randrange(10**6)
    return [verify_op(5, seed, jobs), verify_op(6, seed, jobs)]


def verify_jobs2(serial: list[Op]) -> list[Op]:
    """The serial cycle at ``--jobs 2``: it must print the serial cycle's bytes."""
    return [replace(op, argv=[*op.argv[:-1], "2"]) for op in serial]


# --------------------------------------------------------------------------- #
# workload: sweep
# --------------------------------------------------------------------------- #

PLANTED = ("OutOfRange", "NonPositive", "SumMismatch", "PairSumTooLarge")
ROW_ERROR = re.compile(r"^row (\d+): (\w+): ")


def planted_row(rng: random.Random, n: int, cls: str) -> str:
    theta = weight_vector(rng, n)
    if cls == "OutOfRange":
        cells = fmt(theta).split(",")
        cells[rng.randrange(n)] = "abc"
        return ",".join(cells)
    if cls == "NonPositive":
        theta[rng.randrange(n)] *= -1.0
    elif cls == "SumMismatch":
        theta = [t * 1.01 for t in theta]
    else:
        theta = pair_sum_too_large(rng, n)
    return fmt(theta)


def sweep_op(rng: random.Random, n: int, workdir: Path, polymod) -> Op:
    lines = [",".join(f"theta{i}" for i in range(1, n + 1))]
    valid: list[list[float]] = []
    planted: dict[int, str] = {}
    rows = SWEEP_ROWS[n]
    for i in range(rows):
        if i % PLANTED_EVERY == PLANTED_EVERY // 2:
            cls = PLANTED[len(planted) % len(PLANTED)]
            planted[len(lines) + 1] = cls
            lines.append(planted_row(rng, n, cls))
        else:
            valid.append(weight_vector(rng, n))
            lines.append(fmt(valid[-1]))
    path = workdir / f"sweep{n}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    word = IDENTITY[n]

    def row_ok(theta: list[float], cells: list[str]) -> bool:
        values = [float(c) for c in cells[: n + (2 if n == 5 else 3)]]
        if not close(values[:n], theta, 1e-12):
            return False
        if n == 5:
            p, q = values[5:7]
            return 0.0 < p < 1.0 and 0.0 < q < 1.0 and p * p + q * q > 1.0
        signs = [int(c) for c in cells[-3:]]
        wanted = [sign(s - math.pi) for s in triple_sums(theta, word)]
        return signs == wanted and [sign(v - 1.0) for v in values[6:9]] == wanted

    def roundtrip_ok(theta: list[float], cells: list[str]) -> bool:
        if n == 5:
            s1 = polymod.PentagonShape(*map(float, cells[5:7]))
            back = polymod.invert5(s1, polymod.psi5(polymod.validate_weight(theta), SWAPPED[5]))
        else:
            s1 = polymod.HexahedronShape(*map(float, cells[6:9]))
            back = polymod.invert6(s1, polymod.psi6(polymod.validate_weight(theta), SWAPPED[6]))
        return close(back.theta, theta, 1e-9)

    def check(res: Result) -> int:
        rejected = {}
        for line in res.stderr.splitlines():
            m = ROW_ERROR.match(line)
            if m:
                rejected[int(m.group(1))] = m.group(2)
        out = res.stdout.splitlines()
        if res.code != 0 or len(out) != len(valid) + 1:
            return rows
        bad = sum(rejected.get(row) != cls for row, cls in planted.items())
        bad += sum(row not in planted for row in rejected)
        for k, (theta, line) in enumerate(zip(valid, out[1:])):
            cells = line.split(",")
            try:
                ok = row_ok(theta, cells) and (k % ROUNDTRIP_EVERY or roundtrip_ok(theta, cells))
            except (ValueError, polymod.PolymodError):
                ok = False
            bad += not ok
        return min(bad, rows)

    argv = ["sweep", "--n", str(n), "--input", str(path), "--label", "".join(map(str, word)), "--out", "-"]
    return Op(argv, rows, check)


def sweep_cycle(rng: random.Random, workdir: Path, polymod) -> list[Op]:
    return [sweep_op(rng, 5, workdir, polymod), sweep_op(rng, 6, workdir, polymod)]


# --------------------------------------------------------------------------- #
# workload: cli
# --------------------------------------------------------------------------- #

def expect_doc(code: int, schema: str, verify: Callable[[dict], bool] = lambda doc: True):
    def check(res: Result) -> int:
        try:
            doc = json.loads(res.stdout)
            return int(not (res.code == code and doc["schema"] == schema and verify(doc)))
        except (ValueError, KeyError, TypeError):
            return 1

    return check


def expect_error(code: int, error: str):
    return expect_doc(code, "polymod-error/1", lambda doc: doc["error"] == error)


def forward_op(rng: random.Random, n: int) -> Op:
    theta = weight_vector(rng, n)
    word = tuple(rng.sample(range(1, n + 1), n))

    def shape_ok(doc: dict) -> bool:
        if not (doc["n"] == n and doc["label"] == "".join(map(str, word)) and close(doc["theta"], theta, 1e-12)):
            return False
        shape = doc["shape"]
        if n == 5:
            p, q = shape["P"], shape["Q"]
            return (
                0.0 < p < 1.0 and 0.0 < q < 1.0 and p * p + q * q > 1.0
                and doc["facet_order"] == [1, 3, 5, 2, 4]
                and all(x > 0.0 for x in doc["side_lengths"])
            )
        wanted = [sign(s - math.pi) for s in triple_sums(theta, word)]
        got = [sign(shape[k] - 1.0) for k in "PQR"]
        return got == wanted and doc["classification"]["signs"] == wanted

    argv = ["forward", "--n", str(n), "--theta", fmt(theta), "--label", "".join(map(str, word))]
    return Op(argv, 1, expect_doc(0, "polymod-forward/1", shape_ok))


def shape_pair(polymod, theta: list[float], n: int):
    weight = polymod.validate_weight(theta)
    psi = polymod.psi5 if n == 5 else polymod.psi6
    s1, s2 = psi(weight, IDENTITY[n]), psi(weight, SWAPPED[n])
    if n == 5:
        return [s1.P, s1.Q], [s2.P, s2.Q]
    return list(s1.params), list(s2.params)


def invert_op(n: int, s1, s2, check) -> Op:
    return Op(["invert", "--n", str(n), "--shape1", fmt(s1), "--shape2", fmt(s2)], 1, check)


def invert_ok_op(rng: random.Random, n: int, polymod) -> Op:
    theta = weight_vector(rng, n)
    s1, s2 = shape_pair(polymod, theta, n)
    return invert_op(n, s1, s2, expect_doc(0, "polymod-invert/1", lambda doc: close(doc["theta"], theta, 1e-9)))


def no_intersection_op(rng: random.Random, n: int) -> Op:
    """Shape pairs whose recovery circles have radii summing below 1."""
    if n == 5:
        big = [rng.uniform(0.93, 0.97) for _ in range(2)]
        small = [rng.uniform(0.40, 0.45) for _ in range(2)]
        s1, s2 = [big[0], small[0]], [small[1], big[1]]
    else:
        s1 = [rng.uniform(0.5, 0.6), rng.uniform(1.4, 1.5), rng.uniform(0.8, 1.2)]
        s2 = [rng.uniform(0.5, 0.6), rng.uniform(1.4, 1.5), rng.uniform(0.8, 1.2)]
    return invert_op(n, s1, s2, expect_error(3, "NoIntersection"))


def inconsistent_op(rng: random.Random, polymod) -> Op:
    """A consistent hexahedron pair with one R moved: the circles still meet."""
    s1, s2 = shape_pair(polymod, weight_vector(rng, 6), 6)
    s2[2] *= 1.05
    return invert_op(6, s1, s2, expect_error(4, "InconsistentPair"))


def complex_op(report: str, n: int, check, theta=None) -> Op:
    argv = ["complex", "--n", str(n), "--report", report]
    if theta is not None:
        argv += ["--theta", fmt(theta)]
    return Op(argv, 1, check)


def cli_cycle(rng: random.Random, polymod) -> list[Op]:
    """Twenty invocations: 14 succeed; 2, 2, 1 and 1 exit with codes 2, 3, 4, 5."""
    euler = expect_doc(0, "polymod-complex/1", lambda d: (d["V"], d["E"], d["F"], d["chi"]) == (15, 30, 12, -3))
    cusps = expect_doc(
        0, "polymod-complex/1",
        lambda d: d["classes"] == 10 and d["total_incidences"] == 180
        and all(row["incidences"] == 18 for row in d["table"]),
    )
    pairings = expect_doc(0, "polymod-complex/1", lambda d: d["rows"] == 180 == len(d["pairings"]))
    singular = expect_doc(
        0, "polymod-complex/1",
        lambda d: d["classes"] == len(d["table"])
        and all(0.0 < row["cone_angle"] < row["members"] * math.pi for row in d["table"]),
    )
    ops = [forward_op(rng, 5) for _ in range(3)] + [forward_op(rng, 6) for _ in range(3)]
    ops += [invert_ok_op(rng, n, polymod) for n in (5, 5, 6, 6)]
    ops += [
        complex_op("euler", 5, euler),
        complex_op("cusps", 6, cusps),
        complex_op("pairings", 6, pairings),
        complex_op("singular", 6, singular, weight_vector(rng, 6)),
        Op(["forward", "--n", "5", "--theta", fmt(pair_sum_too_large(rng, 5))], 1,
           expect_error(2, "PairSumTooLarge")),
        Op(["forward", "--n", "6", "--theta", fmt(weight_vector(rng, 5))], 1,
           expect_error(2, "OutOfRange")),
        no_intersection_op(rng, 5),
        no_intersection_op(rng, 6),
        inconsistent_op(rng, polymod),
        complex_op("cusps", 6, expect_error(5, "NotEqualWeight"), weight_vector(rng, 6)),
    ]
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------------- #

def quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of at least two values, interpolated between samples."""
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def measure(runner: Runner, cycle: list[Op], seconds: float, min_invocations: int) -> dict:
    """Repeat whole cycles until ``seconds`` of invocations ran, and enough.

    The set-up and probe timings are spread evenly over the same stretch of
    machine time as the workload; their own time is not counted in it.  The
    timings are scaled by the run's slowdown, its median probe over
    PROBE_REF_S; the unscaled values are returned as ``raw``.
    """
    runner.setup_sample()  # may compile bytecode; not counted
    walls, rates, imports, probes = [], [], [], []
    attempted = failed = 0
    busy = next_sample = 0.0
    while True:
        cycle_wall = cycle_ops = 0.0
        for op in cycle:
            if busy >= next_sample:
                setup, probe = runner.setup_sample()
                imports.append(setup)
                probes.append(probe)
                next_sample += seconds / SETUP_SAMPLES
            res = runner.invoke(op.argv)
            failed += op.failed(res)
            attempted += op.ops
            walls.append(res.wall_s)
            busy += res.wall_s
            cycle_wall += res.wall_s
            cycle_ops += op.ops
        rates.append(cycle_ops / cycle_wall)
        if busy >= seconds and len(walls) >= min_invocations:
            break
    p50, p90 = quantiles(walls)
    raw = {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": 1000.0 * p50,
        "latency_p90_ms": 1000.0 * p90,
        "setup_s": statistics.median(imports),
    }
    slowdown = statistics.median(probes) / PROBE_REF_S
    scaled = {k: v * slowdown if k == "ops_per_s" else v / slowdown for k, v in raw.items()}
    scaled["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"attempted": attempted, "failed": failed, "metrics": scaled, "raw": raw, "slowdown": slowdown}


def layer_metrics(traced: list[Result], untraced: list[Result], jobs2: list[Result] | None) -> tuple[dict, bool]:
    """Per-layer metrics of one traced batch, and whether its self times fit its wall time."""
    functions: dict[str, dict] = {}
    counters: dict[str, float] = {}
    psi_total = psi_checked = 0.0
    for res in traced:
        for name, row in res.spans["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
        for name, value in res.spans["counters"].items():
            counters[name] = counters.get(name, 0) + value
        psi_total += res.spans["psi_total_s"]
        psi_checked += res.spans["psi_cross_check_s"]

    out: dict[str, float] = {}
    for layer, fname in TRACED:
        names = [f"{layer}.{fname}"]
        if fname in ("psi5", "psi6"):
            names = [f"{names[0]}.cross_check", f"{names[0]}.no_cross_check"]
        for name in names:
            row = functions.get(name, {"calls": 0, "self_s": 0.0})
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    trials = out["combinatorics.sample_weight_rng.calls"]
    draws = counters.get("exponential_draws", 0)
    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced)
    jobs2_wall = sum((r.wall_s for r in jobs2 or ()), 0.0)
    self_sum = sum(row["self_s"] for row in functions.values())
    out.update({
        "cli.import_s": statistics.median(r.spans["import_s"] for r in traced),
        "combinatorics.sample_weight_rng.exponential_draws": draws,
        "combinatorics.sample_weight_rng.accept_ratio": ratio(trials, draws),
        "lorentz.build_model.calls_per_trial": ratio(out["lorentz.build_model.calls"], trials),
        "moduli.psi.total_s": psi_total,
        "moduli.psi.cross_check_share": ratio(psi_checked, psi_total),
        "fiber.verify_injectivity.scan_rows": counters.get("scan_rows", 0),
        "fiber.verify_injectivity.scan_pairs": counters.get("scan_pairs", 0),
        "verify.jobs2_wall_s": jobs2_wall,
        "verify.trials_per_s_jobs2": ratio(trials, jobs2_wall),
        "verify.parallel_efficiency": ratio(untraced_wall, 2.0 * jobs2_wall),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": ratio(traced_wall, untraced_wall),
        "trace.self_s_sum": self_sum,
    })
    # traced stdout is compared with the untraced run through Op.reference
    return out, self_sum <= traced_wall


# --------------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------------- #

def load_polymod():
    sys.path.insert(0, str(SRC))
    import polymod

    if Path(polymod.__file__).resolve().parent != (SRC / "polymod").resolve():
        raise ImportError(f"polymod imported from {polymod.__file__}, not from {SRC}")
    return polymod


def metadata(args, polymod) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref.partition("ref: ")[2]
        commit = ref_path.read_text().strip() if ref.startswith("ref: ") and ref_path.is_file() else ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "polymod": polymod.__version__, "src_lines": src_lines,
    }


def build_cycle(workload: str, rng: random.Random, workdir: Path, polymod) -> list[Op]:
    if workload == "verify":
        return verify_cycle(rng, 1)
    if workload == "sweep":
        return sweep_cycle(rng, workdir, polymod)
    return cli_cycle(rng, polymod)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "polymod" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no polymod sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    polymod = load_polymod()
    meta = metadata(args, polymod)
    print("# perfbench " + json.dumps(meta, sort_keys=True))

    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=ROOT / ".bench_build") as tmp:
        workdir = Path(tmp)
        runner = Runner(workdir)
        rng = random.Random(f"{args.workload}:{args.seed}")
        cycle = build_cycle(args.workload, rng, workdir, polymod)
        attempted = failed = 0

        def batch(ops: list[Op], trace: bool = False) -> list[Result]:
            nonlocal attempted, failed
            results = [runner.invoke(op.argv, trace=trace) for op in ops]
            failed += sum(op.failed(res) for op, res in zip(ops, results))
            attempted += sum(op.ops for op in ops)
            return results

        untraced = jobs2 = None
        consistent = True
        if args.trace:
            untraced = batch(cycle)
            if args.workload == "verify":
                jobs2 = batch(verify_jobs2(cycle))
            traced = batch(cycle, trace=True)
            metrics, consistent = layer_metrics(traced, untraced, jobs2)
        else:
            min_inv = CLI_MIN_INVOCATIONS if args.workload == "cli" else 1
            result = measure(runner, cycle, args.seconds, min_inv)
            attempted += result["attempted"]
            failed += result["failed"]
            metrics = result["metrics"]
            print(f"# machine slowdown {result['slowdown']!r}; unscaled " + json.dumps(result["raw"], sort_keys=True))
            if args.workload == "verify":  # the pool must print what --jobs 1 printed (untimed)
                batch(verify_jobs2(cycle))

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        print(f"perfbench: metrics {sorted(set(names) ^ set(metrics))} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    correct = consistent and failed == 0
    units = {m["name"]: m["unit"] for m in declared}
    for name in names:
        label = f"{name} ({OPS_NAMES[args.workload]})" if name == "ops_per_s" else name
        print(f"{label:56s} {metrics[name]!r:>24} {units[name]}")
    print(f"{'failed_ratio':56s} {failed / attempted!r:>24} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
