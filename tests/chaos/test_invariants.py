"""The three invariant checkers must detect what they claim to detect."""

import dataclasses
import pickle

from repro.chaos.invariants import (
    RunFingerprint,
    determinism_violations,
    equivalence_violations,
    results_blob,
    storage_violations,
)
from repro.runtime.config import RunConfig
from repro.runtime.driver import run_with_recovery
from repro.simmpi import SUM
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


def run_ring(storage=None):
    storage = storage if storage is not None else Storage(None)
    return run_with_recovery(ring_app, RunConfig(**CFG), storage=storage), storage


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
    def test_identical_runs_fingerprint_equal(self):
        a, _ = run_ring()
        b, _ = run_ring()
        fa, fb = RunFingerprint.of(a), RunFingerprint.of(b)
        assert fa == fb
        assert determinism_violations(fa, fb) == []

    def test_perturbed_counter_named(self):
        outcome, _ = run_ring()
        fa = RunFingerprint.of(outcome)
        fb = dataclasses.replace(fa, network_messages=fa.network_messages + 1)
        violations = determinism_violations(fa, fb)
        assert violations == [
            f"rerun changed network_messages: {fa.network_messages!r} vs "
            f"{fa.network_messages + 1!r}"
        ]

    def test_fingerprint_carries_attempt_accounting(self):
        outcome, _ = run_ring()
        fp = RunFingerprint.of(outcome)
        assert len(fp.attempts) == len(outcome.attempts)
        # index, completed, failed, dead_ranks, epoch, vt, kills, crashes
        assert all(len(row) == 8 for row in fp.attempts)
