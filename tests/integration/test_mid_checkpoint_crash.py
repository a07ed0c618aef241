"""Mid-checkpoint crashes: a process dies *while writing* its checkpoint.

The storage engine's two-phase commit must make this failure mode
indistinguishable from a plain kill: the torn generation is never
published, so recovery restarts from the previous committed generation
(or from scratch when the first wave was the casualty) and produces the
exact failure-free answer.

Variant coverage mirrors what each variant can express:

* V3 (FULL) — the crash tears generation N mid-write; recovery restarts
  from committed generation N-1 with full application state.
* V2 (NO_APP_STATE) — checkpoints carry no application state, so manual
  apps can only restart *from scratch*; the crash is injected during the
  first wave (nothing committed yet) and the full restart must still be
  answer-identical and unpolluted by the torn write.
* V1 (PIGGYBACK) — no checkpoint waves exist, so the armed crash can
  never fire; the run must complete failure-free.
"""

import pytest

from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi import SUM
from repro.simmpi.failures import FailureSchedule
from repro.statesave.storage import Storage


def ring_app(n_iters=120):
    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
        while state["i"] < n_iters:
            i = state["i"]
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            yield from ctx.mpi.co_send(float(i), right, tag=1)
            incoming = yield from ctx.mpi.co_recv(source=left, tag=1)
            state["acc"] += (yield from ctx.mpi.co_allreduce(incoming, SUM))
            state["i"] += 1
            yield from ctx.co_potential_checkpoint()
        return round(state["acc"], 10)

    return app


BASE = dict(
    nprocs=4, seed=31, checkpoint_interval=0.0025, detector_timeout=0.03,
    ckpt_keep_last=2,
)


@pytest.fixture(scope="module")
def gold():
    return run_with_recovery(ring_app(), RunConfig(**BASE))


class TestFullVariant:
    def test_torn_write_recovers_from_previous_generation(self, gold):
        out = run_with_recovery(
            ring_app(), RunConfig(**BASE),
            failures=FailureSchedule.during_checkpoint(rank=2, epoch=2),
        )
        assert out.results == gold.results
        assert out.restarts == 1
        # The torn generation-2 write was never published: recovery came
        # from the previously committed generation, epoch 1.
        assert out.attempts[1].started_from_epoch == 1

    def test_corrupt_manifest_is_rejected_at_restart(self, gold):
        out = run_with_recovery(
            ring_app(), RunConfig(**BASE),
            failures=FailureSchedule.during_checkpoint(
                rank=1, epoch=2, corrupt_manifest=True
            ),
        )
        assert out.results == gold.results
        assert out.attempts[1].started_from_epoch == 1

    @pytest.mark.parametrize("victim", [0, 3])
    def test_initiator_and_last_rank_victims(self, gold, victim):
        out = run_with_recovery(
            ring_app(), RunConfig(**BASE),
            failures=FailureSchedule.during_checkpoint(rank=victim, epoch=2),
        )
        assert out.results == gold.results

    def test_crash_during_first_wave_restarts_from_scratch(self, gold):
        out = run_with_recovery(
            ring_app(), RunConfig(**BASE),
            failures=FailureSchedule.during_checkpoint(rank=2, epoch=1),
        )
        assert out.results == gold.results
        assert out.attempts[1].started_from_epoch is None

    def test_laplace_precompiled_app(self):
        from repro.apps import laplace

        params = laplace.LaplaceParams(n=32, iterations=140)
        cfg = RunConfig(**BASE)
        gold = run_with_recovery(laplace.build(params), cfg)
        out = run_with_recovery(
            laplace.build(params), cfg,
            failures=FailureSchedule.during_checkpoint(rank=1, epoch=2),
        )
        assert out.results == gold.results
        assert out.restarts == 1


class TestOtherVariants:
    def test_v2_first_wave_crash_restarts_clean(self, gold):
        cfg = RunConfig(variant=Variant.NO_APP_STATE, **BASE)
        v2_gold = run_with_recovery(ring_app(), cfg)
        out = run_with_recovery(
            ring_app(), cfg,
            failures=FailureSchedule.during_checkpoint(rank=1, epoch=1),
        )
        assert out.results == v2_gold.results == gold.results
        assert out.restarts == 1
        assert out.attempts[1].started_from_epoch is None

    def test_v1_has_no_waves_so_crash_never_fires(self, gold):
        cfg = RunConfig(variant=Variant.PIGGYBACK, **BASE)
        out = run_with_recovery(
            ring_app(), cfg,
            failures=FailureSchedule.during_checkpoint(rank=1, epoch=1),
        )
        assert out.results == gold.results
        assert out.restarts == 0

    def test_unfired_crash_does_not_leak_into_next_run(self, gold):
        """A crash left unfired by one run (V1 takes no checkpoints) must
        not stay armed on a reused storage and kill a later run."""
        storage = Storage(None, keep_last=2)
        run_with_recovery(
            ring_app(), RunConfig(variant=Variant.PIGGYBACK, **BASE),
            storage=storage,
            failures=FailureSchedule.during_checkpoint(rank=2, epoch=2),
        )
        out = run_with_recovery(ring_app(), RunConfig(**BASE), storage=storage)
        assert out.restarts == 0
        assert out.results == gold.results


class TestOlderGenerationRestart:
    def test_corruption_between_runs_falls_back_to_generation_n_minus_1(
        self, tmp_path, gold
    ):
        """Bit rot *after* a successful run: the newest committed
        generation fails validation at the next restart, and the run
        resumes from the retained N-1 — same final answer."""
        cfg = RunConfig(storage_path=str(tmp_path / "stable"), **BASE)
        storage = Storage.from_config(cfg)
        first = run_with_recovery(ring_app(), cfg, storage=storage)
        assert first.results == gold.results
        newest = storage.committed_epoch()
        assert newest is not None and newest >= 2
        storage.store.corrupt_manifest(f"rank0/state", newest)
        assert storage.committed_epoch() == newest - 1
        # A fresh Storage over the same directory reaches the same verdict
        # (the fallback is a property of the bytes, not of the process).
        reopened = Storage.from_config(cfg)
        assert reopened.committed_epoch() == newest - 1
        second = run_with_recovery(ring_app(), cfg, storage=reopened)
        assert second.results == gold.results
        assert second.attempts[0].started_from_epoch == newest - 1
