"""``RunOutcome.facts()``: the one definition of a run's exact facts.

The golden rows, chaos invariant 3, the rerun-identity suite and the
end-to-end benchmark compare runs through it.  These tests pin that it
holds every exact fact the benchmark's child reports (with equal values),
survives a JSON round trip, mirrors the outcome's own accounting, and
leaves host time out.
"""

import hashlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.api.session import RunRow, SweepCell
from repro.chaos.invariants import determinism_violations
from repro.protocol.stages.base import LayerStats
from repro.runtime.config import Variant
from repro.runtime.driver import AttemptRecord, RunOutcome
from test_golden_facts import run_case

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
import child  # noqa: E402

CASES = ("dense_cg-V0", "dense_cg-V3", "dense_cg-recovery")


@pytest.fixture(scope="module")
def outcomes():
    return {case: run_case(case) for case in CASES}


@pytest.mark.parametrize("case", CASES)
def test_facts_hold_the_benchmark_exact_facts(outcomes, case):
    out = outcomes[case]
    facts, exact = out.facts(), child.exact_facts(out)
    assert set(exact) <= set(facts)
    assert {key: facts[key] for key in exact} == exact
    # Beyond the child's: one more LayerStats counter and the per-attempt
    # accounting.
    extra = set(facts) - set(exact)
    assert "log_finalizations" in extra
    assert all(k == "log_finalizations" or k.startswith("attempt") for k in extra)


@pytest.mark.parametrize("case", CASES)
def test_facts_survive_a_json_round_trip(outcomes, case):
    facts = outcomes[case].facts()
    assert json.loads(json.dumps(facts)) == facts


@pytest.mark.parametrize("case", CASES)
def test_facts_are_flat_scalars(outcomes, case):
    """One level deep: each value is a scalar, or an attempt's dead ranks,
    so a diff names a moved fact by its key alone."""
    for key, value in outcomes[case].facts().items():
        if isinstance(value, list):
            assert key.endswith("_dead_ranks"), key
            assert all(type(rank) is int for rank in value)
        else:
            assert value is None or isinstance(value, (bool, int, float, str)), key


def test_an_outcome_without_attempts_has_facts():
    facts = RunOutcome(results=[]).facts()
    assert facts["restarts"] == facts["waves"] == facts["messages"] == 0
    assert facts["restored_epoch"] is None
    assert facts["results_sha256"] == hashlib.sha256(b"[]").hexdigest()
    assert not any(key.startswith(("attempt", "stage_calls.")) for key in facts)
    assert json.loads(json.dumps(facts)) == facts


def test_every_layer_stats_counter_is_a_fact_summed_over_ranks(outcomes):
    out = outcomes["dense_cg-recovery"]
    facts = out.facts()
    assert len(out.layer_stats) == 4
    for counter in fields(LayerStats):
        if counter.name != "stage_calls":
            assert facts[counter.name] == sum(
                getattr(stats, counter.name) for stats in out.layer_stats
            ), counter.name
    assert facts["checkpoints_taken"] > 0


def test_an_unmodified_run_checkpoints_nothing(outcomes):
    facts = outcomes["dense_cg-V0"].facts()
    assert facts["waves"] == facts["stored_bytes"] == facts["restarts"] == 0
    assert facts["checkpoints_taken"] == facts["ckpt_stored_bytes"] == 0
    assert facts["restored_epoch"] is None
    # V0 runs through the raw adapter: no protocol stage is ever entered.
    assert not any(key.startswith("stage_calls.") for key in facts)
    assert facts["attempt0_completed"] and not facts["attempt0_failed"]
    assert not any(key.startswith("attempt1_") for key in facts)


def test_a_failure_free_full_run_commits_in_one_attempt(outcomes):
    facts = outcomes["dense_cg-V3"].facts()
    assert facts["waves"] >= 1 and facts["stored_bytes"] > 0
    assert facts["checkpoints_taken"] >= 4 * facts["waves"]
    assert facts["restarts"] == 0 and facts["restored_epoch"] is None
    assert facts["stage_calls.checkpoint"] > 0
    assert facts["attempt0_kills"] == facts["attempt0_checkpoint_crashes"] == "()"
    assert facts["attempt0_dead_ranks"] == []
    assert not any(key.startswith("attempt1_") for key in facts)


def test_results_sha256_hashes_the_results_repr(outcomes):
    out = outcomes["dense_cg-V3"]
    facts = out.facts()
    assert facts["results_sha256"] == hashlib.sha256(repr(out.results).encode()).hexdigest()
    other = replace(out, results=[*out.results[:-1], None]).facts()
    assert {key for key in facts if facts[key] != other[key]} == {"results_sha256"}


def test_checkpointing_and_recovery_leave_the_results_hash_alone(outcomes):
    """The paper's transparency claim, read off the facts: V0, V3 and a
    killed-and-recovered V3 run compute the same results."""
    hashes = {case: outcomes[case].facts()["results_sha256"] for case in CASES}
    assert len(set(hashes.values())) == 1, hashes


def test_determinism_violations_name_the_perturbed_key(outcomes):
    out = outcomes["dense_cg-recovery"]
    assert determinism_violations(out, out) == []
    n = out.storage_bytes_written
    moved = replace(out, storage_bytes_written=n + 1)
    assert determinism_violations(out, moved) == [
        f"rerun changed stored_bytes: {n!r} vs {n + 1!r}"
    ]
    first = out.attempts[0]
    moved = replace(out, attempts=[replace(first, dead_ranks=(2,)), *out.attempts[1:]])
    assert determinism_violations(out, moved) == [
        f"rerun changed attempt0_dead_ranks: {list(first.dead_ranks)!r} vs [2]"
    ]


def test_determinism_violations_name_each_moved_key_in_key_order(outcomes):
    out = outcomes["dense_cg-V3"]
    moved = replace(
        out, total_virtual_time=2 * out.total_virtual_time,
        network_bytes=out.network_bytes + 8,
    )
    assert [v.split(":")[0] for v in determinism_violations(out, moved)] == [
        "rerun changed bytes",
        "rerun changed virtual_s",
    ]


def test_determinism_violations_name_a_fact_only_one_run_has(outcomes):
    out = outcomes["dense_cg-V3"]
    first = out.attempts[0]
    probed = replace(
        out, attempts=[replace(first, stage_calls={**first.stage_calls, "probe": 1})]
    )
    assert determinism_violations(out, probed) == [
        "rerun changed attempt0_stage_calls.probe: 'absent' vs 1",
        "rerun changed stage_calls.probe: 'absent' vs 1",
    ]


def test_facts_mirror_the_outcome(outcomes):
    out = outcomes["dense_cg-recovery"]
    facts = out.facts()
    assert facts["restarts"] == 1
    assert facts["waves"] == out.checkpoints_committed >= 1
    assert facts["messages"] == out.network_messages > 0
    assert facts["attempt0_failed"] and not facts["attempt0_completed"]
    assert "KillEvent" in facts["attempt0_kills"]
    assert facts["attempt1_completed"]
    assert facts["restored_epoch"] == facts["attempt1_from_epoch"] is not None
    # Per-stage counts mirror stage_totals(), and each is the sum of its
    # attempts' counts.
    totals = out.stage_totals()
    assert totals
    for name, entry in totals.items():
        assert facts[f"stage_calls.{name}"] == entry["calls"] == (
            facts[f"attempt0_stage_calls.{name}"] + facts[f"attempt1_stage_calls.{name}"]
        )
    assert not any("wall" in key or "trace" in key for key in facts)


def test_run_row_columns_match_outcome(outcomes):
    out = outcomes["dense_cg-recovery"]
    row = RunRow(
        cell=SweepCell(app="dense_cg", variant=Variant.FULL, seed=3, nprocs=4),
        outcome=out,
    ).as_dict()
    assert row["attempts"] == 2 and isinstance(row["attempts"], int)
    assert row["restarts"] == 1
    assert row["virtual_time"] == out.total_virtual_time
    assert row["checkpoints_committed"] == out.checkpoints_committed
    assert row["storage_bytes"] == out.storage_bytes_written
    assert row["network_messages"] == out.network_messages
    assert row["network_bytes"] == out.network_bytes
    assert row["wall_seconds"] == out.total_wall_seconds == sum(
        rec.wall_seconds for rec in out.attempts
    ) > 0
    assert row["stage_calls"] == {k: v["calls"] for k, v in out.stage_totals().items()}


def test_outcome_sums_attempts_and_its_facts_exclude_wall_time():
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
    # host time differs, every simulated fact agrees
    assert fast.facts() == slow.facts()
    assert RunOutcome(results=[]).total_wall_seconds == 0
    assert RunOutcome(results=[]).stage_totals() == {}
