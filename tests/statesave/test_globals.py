"""Globals registry tests (uses this test module as the target module)."""

import pickle

import pytest

from repro.errors import CheckpointError
from repro.statesave.globals_registry import (
    DEFAULT_REGISTRY,
    GlobalsRegistry,
    checkpointable_state,
)

# Module-level variables manipulated by the tests below.
COUNTER = 0
TABLE = {"a": 1}


class TestRegistry:
    def test_register_and_snapshot(self):
        global COUNTER
        reg = GlobalsRegistry()
        reg.register(__name__, "COUNTER")
        COUNTER = 7
        snap = reg.snapshot()
        assert snap[(__name__, "COUNTER")] == 7

    def test_restore_writes_back(self):
        global COUNTER
        reg = GlobalsRegistry()
        reg.register(__name__, "COUNTER")
        COUNTER = 3
        snap = reg.snapshot()
        COUNTER = 99
        reg.restore(snap)
        assert COUNTER == 3

    def test_unknown_attribute_rejected(self):
        with pytest.raises(CheckpointError):
            GlobalsRegistry().register(__name__, "NO_SUCH_GLOBAL")

    def test_register_idempotent(self):
        reg = GlobalsRegistry()
        reg.register(__name__, "COUNTER")
        reg.register(__name__, "COUNTER")
        assert len(reg.registered) == 1

    def test_register_many(self):
        reg = GlobalsRegistry()
        reg.register_many(__name__, ["COUNTER", "TABLE"])
        assert len(reg.registered) == 2

    def test_snapshot_picklable(self):
        global TABLE
        reg = GlobalsRegistry()
        reg.register(__name__, "TABLE")
        TABLE = {"a": 2}
        snap = pickle.loads(pickle.dumps(reg.snapshot()))
        TABLE = {}
        reg.restore(snap)
        assert TABLE == {"a": 2}

    def test_restore_registers_new_entries(self):
        """Restoring on a fresh registry re-populates its entry list."""
        reg = GlobalsRegistry()
        reg.register(__name__, "COUNTER")
        snap = reg.snapshot()
        fresh = GlobalsRegistry()
        fresh.restore(snap)
        assert fresh.registered == reg.registered


TALLY = {"total": 0.0}


def _tally_app(ctx):
    """Accumulates allreduce results into a registered module global."""
    from repro.simmpi import SUM

    state = ctx.checkpointable_state(lambda: {"i": 0})
    while state["i"] < 40:
        yield from ctx.co_potential_checkpoint()
        x = yield from ctx.mpi.co_allreduce(1.0, SUM)
        if ctx.rank == 0:
            TALLY["total"] += x
        state["i"] += 1
    return state["i"]


class TestRuntimeRoundTrip:
    """Registered globals ride along in checkpoints: a recovered run must
    end with the same global value as the failure-free run (without the
    restore, replayed iterations double-count into the global)."""

    def test_registered_global_survives_recovery(self):
        from repro.runtime import RunConfig, run_with_recovery
        from repro.simmpi import FailureSchedule

        before = list(DEFAULT_REGISTRY._entries)
        try:
            checkpointable_state("TALLY", module=__name__)
            cfg = RunConfig(nprocs=2, seed=5, checkpoint_interval=0.0005,
                            detector_timeout=0.04)
            TALLY["total"] = 0.0
            gold = run_with_recovery(_tally_app, cfg)
            gold_total = TALLY["total"]
            assert gold_total == 80.0  # 40 iterations x allreduce of 1.0 x 2
            assert gold.checkpoints_committed >= 1

            TALLY["total"] = 0.0
            rec = run_with_recovery(
                _tally_app, cfg,
                failures=FailureSchedule.single(gold.total_virtual_time * 0.5, 1),
            )
            assert len(rec.attempts) == 2
            assert rec.results == gold.results
            assert TALLY["total"] == gold_total
        finally:
            DEFAULT_REGISTRY._entries = before
            TALLY["total"] = 0.0


class TestCheckpointableState:
    """The module-level declaration ``repro-check --fix`` emits."""

    def test_registers_in_the_calling_module(self):
        reg = GlobalsRegistry()
        checkpointable_state("COUNTER", "TABLE", registry=reg)
        assert (__name__, "COUNTER") in reg.registered
        assert (__name__, "TABLE") in reg.registered

    def test_module_override(self):
        reg = GlobalsRegistry()
        checkpointable_state("COUNTER", module=__name__, registry=reg)
        assert reg.registered == [(__name__, "COUNTER")]

    def test_defaults_to_the_process_registry(self):
        before = list(DEFAULT_REGISTRY.registered)
        try:
            checkpointable_state("COUNTER")
            assert (__name__, "COUNTER") in DEFAULT_REGISTRY.registered
        finally:
            DEFAULT_REGISTRY._entries = before

    def test_unknown_name_rejected(self):
        with pytest.raises(CheckpointError):
            checkpointable_state("NO_SUCH_GLOBAL", registry=GlobalsRegistry())

    def test_registered_state_round_trips(self):
        global TABLE
        reg = GlobalsRegistry()
        checkpointable_state("TABLE", registry=reg)
        TABLE = {"a": 5}
        snap = reg.snapshot()
        TABLE = {}
        reg.restore(snap)
        assert TABLE == {"a": 5}
