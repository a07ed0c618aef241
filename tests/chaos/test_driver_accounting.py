"""Attempt-indexed failure accounting and multi-attempt recovery semantics."""

import pytest

from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi import SUM, FailureSchedule, KillEvent

CFG = dict(nprocs=3, seed=9, checkpoint_interval=0.002, detector_timeout=0.03)


def ring_app(ctx):
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
    while state["i"] < 60:
        right = (ctx.rank + 1) % ctx.size
        yield from ctx.mpi.co_send(float(state["i"]), right, tag=1)
        incoming = yield from ctx.mpi.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
        state["acc"] += (yield from ctx.mpi.co_allreduce(incoming, SUM))
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    return state["acc"]


@pytest.fixture(scope="module")
def gold():
    return run_with_recovery(ring_app, RunConfig(**CFG))


class TestAttemptAccounting:
    def test_kills_recorded_on_their_attempt(self, gold):
        out = run_with_recovery(
            ring_app, RunConfig(**CFG),
            failures=FailureSchedule.single(0.004, 1),
        )
        assert out.results == gold.results
        assert [len(a.kills) for a in out.attempts] == [1, 0]
        assert out.attempts[0].kills[0].rank == 1

    def test_crashes_recorded_on_their_attempt(self, gold):
        out = run_with_recovery(
            ring_app, RunConfig(ckpt_keep_last=2, **CFG),
            failures=FailureSchedule.during_checkpoint(rank=2, epoch=2),
        )
        assert out.results == gold.results
        assert [len(a.checkpoint_crashes) for a in out.attempts] == [1, 0]
        assert out.attempts[0].checkpoint_crashes[0].epoch == 2

    def test_attempt_pinned_kill_fires_during_recovery(self, gold):
        """A kill pinned to attempt 1 strikes while the first restart is
        replaying; the third attempt still produces the exact answer."""
        out = run_with_recovery(
            ring_app, RunConfig(**CFG),
            failures=FailureSchedule(
                [KillEvent(0.004, 1), KillEvent(0.001, 0, attempt=1)]
            ),
        )
        assert out.results == gold.results
        assert len(out.attempts) == 3
        assert [k.rank for a in out.attempts for k in a.kills] == [1, 0]
        assert out.attempts[1].kills[0].attempt == 1

    def test_attempt_pinned_kill_never_fires_after_its_attempt(self, gold):
        """A kill pinned to attempt 3 of a run that only needs one attempt
        is a no-op — and must not leak into any later accounting."""
        out = run_with_recovery(
            ring_app, RunConfig(**CFG),
            failures=FailureSchedule([KillEvent(0.001, 1, attempt=3)]),
        )
        assert out.results == gold.results
        assert len(out.attempts) == 1
        assert out.attempts[0].kills == ()


class TestNoAppStateRecovery:
    def test_v2_mid_run_kill_restarts_from_scratch(self, gold):
        """A no-app-state stack cannot resume from a checkpoint (the app's
        state is not in it); recovery is re-execution from scratch — and
        still bit-identical (found by chaos campaign seed 7)."""
        cfg = RunConfig(variant=Variant.NO_APP_STATE, **CFG)
        v2_gold = run_with_recovery(ring_app, cfg)
        out = run_with_recovery(
            ring_app, cfg, failures=FailureSchedule.single(0.006, 1)
        )
        assert out.results == v2_gold.results == gold.results
        assert len(out.attempts) == 2
        assert out.attempts[1].started_from_epoch is None

    def test_v3_still_restores_from_checkpoint(self, gold):
        out = run_with_recovery(
            ring_app, RunConfig(**CFG),
            failures=FailureSchedule.single(0.006, 1),
        )
        assert out.results == gold.results
        assert out.attempts[1].started_from_epoch is not None
