"""The harness against the real program: config filtering, contract names, --quick."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from benchmarks.suite import metrics, runner
from benchmarks.suite.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[3]
RUN_PY = ROOT / "benchmarks" / "suite" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_make_db_drops_and_reports_an_unknown_kwarg():
    db, requested, applied = runner.make_db(buffer_pages=16, knob_retired_by_a_later_pr=3)
    assert requested == {"buffer_pages": 16, "knob_retired_by_a_later_pr": 3}
    assert applied == {"buffer_pages": 16}
    assert db.buffer.capacity == 16


def test_benchmark_json_is_the_registry():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.driver_bound) for m in metrics.CONTRACT_E2E]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.CONTRACT_PER_LAYER
    ]
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


def _driver_run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    command = [*BENCHMARK["command"], "--workload", workload, "--seed", "3", "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_line_declares_exactly_the_contract_names(trace):
    code, line = _driver_run("mixed_rw", trace, "--ops", "40", "--quick")
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 40
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = line["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert line["metrics"]["harness.layers_missing"]["value"] == 0
        assert line["metrics"]["txn.wal_flushes_per_write"]["value"] == 1.0
        assert line["metrics"]["durability_lost_rows"]["value"] == 0
    else:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_perturbed_oracle_fails_loudly():
    code, line = _driver_run("adhoc_tiny", 0, "--ops", "120", "--quick", "--perturb-oracle")
    assert code != 0
    assert line["correct"] is False and line["failed"] > 0


def test_quick_suite_completes_in_twenty_seconds(tmp_path):
    out = tmp_path / "quick.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert elapsed < 20.0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == list(WORKLOADS) and record["quick"] is True
    for name in metrics.E2E:
        assert name.name in done.stdout  # printed by name
    for report in record["workloads"].values():
        assert report["correct"] and report["e2e"]["failed_ops_share"]["value"] == 0
