"""The three invariant checkers must detect what they claim to detect."""

import dataclasses
import pickle

from repro.chaos.invariants import (
    determinism_violations,
    equivalence_violations,
    results_blob,
    storage_violations,
)
from repro.runtime.config import RunConfig
from repro.runtime.driver import run_with_recovery
from repro.simmpi import SUM, FailureSchedule
from repro.statesave.storage import Storage

CFG = dict(nprocs=3, seed=4, checkpoint_interval=0.002, detector_timeout=0.04)


def ring_app(ctx):
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
    while state["i"] < 30:
        right = (ctx.rank + 1) % ctx.size
        yield from ctx.mpi.co_send(float(state["i"]), right, tag=1)
        incoming = yield from ctx.mpi.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
        state["acc"] += (yield from ctx.mpi.co_allreduce(incoming, SUM))
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    return state["acc"]


def run_ring(storage=None, failures=None, **overrides):
    storage = storage if storage is not None else Storage(None)
    config = RunConfig(**CFG, **overrides)
    return run_with_recovery(ring_app, config, failures=failures, storage=storage), storage


class TestEquivalence:
    def test_identical_results_pass(self):
        outcome, _ = run_ring()
        assert equivalence_violations(results_blob(outcome), outcome) == []

    def test_divergent_results_reported(self):
        outcome, _ = run_ring()
        baseline = pickle.dumps([x + 1 for x in outcome.results])
        violations = equivalence_violations(baseline, outcome)
        assert violations and "diverge" in violations[0]


class TestStorage:
    def test_clean_run_passes(self):
        outcome, storage = run_ring()
        assert outcome.checkpoints_committed >= 1
        assert storage_violations(storage) == []

    def test_corrupt_committed_manifest_reported(self):
        _, storage = run_ring()
        epoch = storage.committed_epoch()
        storage.store.corrupt_manifest("rank0/state", epoch)
        violations = storage_violations(storage)
        assert any("no longer validates" in v for v in violations)

    def test_orphan_chunk_reported(self):
        _, storage = run_ring()
        storage.store.backend.put("objects/none/ab/abcd", b"stranded")
        violations = storage_violations(storage)
        assert any("orphan chunk" in v for v in violations)

    def test_missing_generation_reported(self):
        _, storage = run_ring()
        epoch = storage.committed_epoch()
        storage.store.delete_generation("rank1/state", epoch)
        violations = storage_violations(storage)
        assert violations  # either validation or readability must trip


class TestDeterminism:
    def test_identical_runs_have_equal_facts(self):
        a, _ = run_ring()
        b, _ = run_ring()
        assert a.facts() == b.facts()
        assert determinism_violations(a, b) == []

    def test_perturbed_counter_named(self):
        outcome, _ = run_ring()
        n = outcome.network_messages
        rerun = dataclasses.replace(outcome, network_messages=n + 1)
        assert determinism_violations(outcome, rerun) == [
            f"rerun changed messages: {n!r} vs {n + 1!r}"
        ]

    def test_different_results_reported_from_the_pickled_bytes(self):
        outcome, _ = run_ring()
        rerun = dataclasses.replace(outcome, results=[*outcome.results[:-1], None])
        violations = determinism_violations(outcome, rerun)
        assert [v.split(":")[0] for v in violations] == [
            "rerun produced different per-rank results",
            "rerun changed results_sha256",
        ]

    def test_facts_carry_attempt_accounting(self):
        outcome, _ = run_ring()
        facts = outcome.facts()
        for rec in outcome.attempts:
            prefix = f"attempt{rec.index}_"
            assert facts[prefix + "completed"] == rec.completed
            assert facts[prefix + "failed"] == rec.failed
            assert facts[prefix + "dead_ranks"] == list(rec.dead_ranks)
            assert facts[prefix + "from_epoch"] == rec.started_from_epoch
            assert facts[prefix + "virtual_s"] == rec.virtual_time
            assert facts[prefix + "kills"] == repr(rec.kills)
            assert facts[prefix + "checkpoint_crashes"] == repr(rec.checkpoint_crashes)

    def test_recovered_runs_rerun_with_equal_facts(self):
        kill = FailureSchedule.single(0.004, 1)
        a, _ = run_ring(failures=kill)
        b, _ = run_ring(failures=kill)
        assert a.restarts == 1
        assert a.facts()["restored_epoch"] is not None
        assert determinism_violations(a, b) == []

    def test_checkpoint_crash_is_a_fact_that_reruns_equal(self):
        crash = FailureSchedule.during_checkpoint(rank=2, epoch=2)
        a, _ = run_ring(failures=crash, ckpt_keep_last=2)
        facts = a.facts()
        assert "CheckpointCrash" in facts["attempt0_checkpoint_crashes"]
        assert facts["attempt1_checkpoint_crashes"] == "()"
        b, _ = run_ring(failures=crash, ckpt_keep_last=2)
        assert determinism_violations(a, b) == []
