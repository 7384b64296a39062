"""The committed benchmark records: every ``BENCH_*.json`` at the root of
the repository parses, has a result for each workload that
``BENCHMARK.json`` declares, and holds every metric it names, end to end
and per layer.  Nothing here is timed."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_has_every_workload_and_metric(path):
    """Each run holds ``perfbench/run.py``'s metadata line, its ``# machine``
    line (untraced runs only) and its result line, parsed."""
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in SPEC["workloads"]]
    assert set(workloads) <= set(record["runs"])
    for kind, runs in (("end_to_end", record["runs"]), ("per_layer", record["traced"])):
        assert runs
        for workload, run in runs.items():
            assert run["meta"]["workload"] == workload
            assert run["meta"]["trace"] == (kind == "per_layer")
            assert {metric["name"] for metric in SPEC[kind]} <= set(run["result"]["metrics"])
            assert run["result"]["attempted"] > 0
            if kind == "end_to_end":
                assert run["machine"]["slowdown"] > 0 and run["machine"]["unscaled"]
