"""Smoke test of the repo benchmark: ``run.py --quick`` end to end.

One ``--quick`` run (one launch, two rounds, shrunken workloads, traced
pass included) with one probe forced to fail; everything asserted here is
about shape and correctness, never about a timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: The metrics of the probe the run is told to break.
BROKEN = {"ckpt.save_mb_s", "ckpt.resave_mb_s", "ckpt.load_mb_s", "ckpt.pickle_mb_s"}


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "record.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--fail-probe", "ckpt.rates",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc, json.loads(out.read_text())


def test_spec_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_record_matches_benchmark_json(quick_run):
    _, record = quick_run
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, workload in record["workloads"].items():
        assert workload["ops_failed"] == 0, (name, workload["failures"])
        assert workload["ops_attempted"] >= 15
        assert list(workload["end_to_end"]) == [m["name"] for m in SPEC["end_to_end"]]
        for metric, summary in workload["end_to_end"].items():
            assert summary["median"] is not None and summary["median"] > 0, (name, metric)
        assert list(workload["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]


def test_recovery_restores_from_a_committed_epoch(quick_run):
    _, record = quick_run
    for name, workload in record["workloads"].items():
        layer = {k: v["value"] for k, v in workload["per_layer"].items()}
        assert layer["runtime.restarts"] == 1, name
        assert layer["runtime.restored_epoch"] >= 1, name
        assert any(
            layer[f"protocol.{c}"] > 0
            for c in ("replayed_matches", "replayed_late", "replayed_collectives")
        ), name
        assert layer["check.diagnostics"] == 0, name
        assert layer["trace.dropped"] == 0, name


def test_failed_probe_reads_null_and_nothing_else_does(quick_run):
    _, record = quick_run
    for name, workload in record["workloads"].items():
        nulls = {k for k, v in workload["per_layer"].items() if v["value"] is None}
        assert nulls == BROKEN, (name, sorted(nulls ^ BROKEN))


def test_last_stdout_line_is_the_contract_object(quick_run):
    proc, record = quick_run
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    # --quick keeps the default --trace 1: the line carries the per-layer metrics.
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())
