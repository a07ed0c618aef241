"""Unified metrics registry and its adapters over the stack's stat carriers."""

import pytest

from repro.api.registry import get_app
from repro.api.session import RunRow, SweepCell
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import AttemptRecord, RunOutcome, run_with_recovery
from repro.simmpi.failures import FailureSchedule
from repro.trace.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    campaign_metrics,
    outcome_metrics,
    snapshot_get,
)


def test_registry_count_gauge_observe():
    reg = MetricsRegistry()
    reg.count("a")
    reg.count("a", 2.0)
    reg.gauge("g", 5.0)
    reg.gauge("g", 7.0)  # gauges overwrite
    reg.observe_many("h", [1.0, 3.0, 2.0])
    snap = reg.snapshot()
    assert snap["schema"] == METRICS_SCHEMA
    assert snap["counters"] == {"a": 3.0}
    assert snap["gauges"] == {"g": 7.0}
    assert snap["histograms"]["h"] == {
        "count": 3, "min": 1.0, "max": 3.0, "sum": 6.0, "mean": 2.0,
    }


def test_registry_merge():
    a = MetricsRegistry()
    a.count("c", 1.0)
    a.observe("h", 1.0)
    b = MetricsRegistry()
    b.count("c", 2.0)
    b.count("only_b", 1.0)
    b.gauge("g", 9.0)
    b.observe("h", 5.0)
    a.merge(b)
    snap = a.snapshot()
    assert snap["counters"] == {"c": 3.0, "only_b": 1.0}
    assert snap["gauges"] == {"g": 9.0}
    assert snap["histograms"]["h"]["count"] == 2
    assert snap["histograms"]["h"]["min"] == 1.0
    assert snap["histograms"]["h"]["max"] == 5.0


def test_snapshot_keys_sorted():
    reg = MetricsRegistry()
    for name in ("zeta", "alpha", "mid"):
        reg.count(name)
        reg.observe(f"h.{name}", 1.0)
    snap = reg.snapshot()
    assert list(snap["counters"]) == sorted(snap["counters"])
    assert list(snap["histograms"]) == sorted(snap["histograms"])


def test_snapshot_get_tolerates_junk():
    reg = MetricsRegistry()
    reg.count("x", 4.0)
    snap = reg.snapshot()
    assert snapshot_get(snap, "counters", "x") == 4.0
    assert snapshot_get(snap, "counters", "missing", -1) == -1
    assert snapshot_get({"not": "a snapshot"}, "counters", "x", -1) == -1


@pytest.fixture(scope="module")
def killed_outcome():
    """One laplace run under V3 with a mid-run kill (2 attempts)."""
    app = get_app("laplace")
    params = app.default_params.__class__(n=16, iterations=60)
    cfg = RunConfig(
        nprocs=4,
        variant=Variant.FULL,
        checkpoint_interval=0.0015,
        detector_timeout=0.02,
        trace=True,
    )
    return run_with_recovery(
        app.build(params), cfg, failures=FailureSchedule.single(time=0.004, rank=1)
    )


def test_outcome_metrics_on_real_run(killed_outcome):
    snap = killed_outcome.metrics_snapshot()
    assert snap["schema"] == METRICS_SCHEMA
    assert snapshot_get(snap, "gauges", "run.attempts") == 2.0
    assert snapshot_get(snap, "gauges", "run.restarts") == 1.0
    assert snapshot_get(snap, "gauges", "run.completed") == 1.0
    assert snapshot_get(snap, "counters", "run.kills") == 1.0
    assert snapshot_get(snap, "counters", "ckpt.commits") >= 1.0
    assert snapshot_get(snap, "counters", "net.messages") > 0
    # traced run records trace gauges
    assert snapshot_get(snap, "gauges", "trace.events") > 0
    # per-stage metrics mirror stage_totals exactly
    totals = killed_outcome.stage_totals()
    assert totals
    for name, entry in totals.items():
        assert snapshot_get(snap, "counters", f"proto.stage_calls.{name}") == float(entry["calls"])
    # ... and the snapshot carries no host-time reading of them
    assert not any(name.startswith("proto.") for name in snap["histograms"])


def test_run_row_columns_match_outcome(killed_outcome):
    row = RunRow(
        cell=SweepCell(app="laplace", variant=Variant.FULL, seed=0, nprocs=4),
        outcome=killed_outcome,
    ).as_dict()
    assert row["attempts"] == 2 and isinstance(row["attempts"], int)
    assert row["restarts"] == 1
    assert row["virtual_time"] == pytest.approx(killed_outcome.total_virtual_time)
    assert row["checkpoints_committed"] == killed_outcome.checkpoints_committed
    assert row["network_messages"] == killed_outcome.network_messages
    assert row["wall_seconds"] == killed_outcome.total_wall_seconds
    assert killed_outcome.total_wall_seconds == sum(
        rec.wall_seconds for rec in killed_outcome.attempts
    ) > 0
    totals = killed_outcome.stage_totals()
    assert row["stage_calls"] == {k: int(v["calls"]) for k, v in totals.items()}


def test_outcome_sums_attempts_and_its_snapshot_excludes_wall_time():
    def outcome(walls):
        return RunOutcome(
            results=[],
            attempts=[
                AttemptRecord(
                    index=i, completed=i == len(walls) - 1, failed=i < len(walls) - 1,
                    dead_ranks=(), started_from_epoch=None, virtual_time=0.5,
                    wall_seconds=wall, stage_calls={"send": 3 + i, "checkpoint": 1},
                )
                for i, wall in enumerate(walls)
            ],
            total_virtual_time=1.0,
        )

    fast, slow = outcome([0.25, 0.5]), outcome([4.0, 8.0])
    assert fast.total_wall_seconds == 0.75
    assert slow.total_wall_seconds == 12.0
    assert fast.stage_totals() == {"send": {"calls": 7}, "checkpoint": {"calls": 2}}
    # host time differs, every simulated fact agrees: the snapshots match
    assert fast.metrics_snapshot() == slow.metrics_snapshot()
    assert RunOutcome(results=[]).total_wall_seconds == 0
    assert RunOutcome(results=[]).stage_totals() == {}


def test_campaign_metrics_over_verdict_dicts():
    verdicts = [
        {"ok": True, "violations": [], "kills_fired": 2,
         "crashes_fired": 0, "checkpoints_committed": 3, "virtual_time": 0.01},
        {"ok": False, "violations": ["results mismatch"], "kills_fired": 1,
         "crashes_fired": 1, "checkpoints_committed": 1, "virtual_time": 0.02},
    ]
    snap = campaign_metrics(verdicts).snapshot()
    assert snapshot_get(snap, "counters", "chaos.scenarios") == 2.0
    assert snapshot_get(snap, "counters", "chaos.passed") == 1.0
    assert snapshot_get(snap, "counters", "chaos.failed") == 1.0
    assert snapshot_get(snap, "counters", "chaos.violations") == 1.0
    assert snapshot_get(snap, "counters", "chaos.kills_fired") == 3.0
    assert snapshot_get(snap, "histograms", "chaos.virtual_time")["count"] == 2


def test_campaign_metrics_empty_seeds_zero_counters():
    snap = campaign_metrics([]).snapshot()
    assert snapshot_get(snap, "counters", "chaos.scenarios") == 0.0
    assert snapshot_get(snap, "counters", "chaos.failed") == 0.0
