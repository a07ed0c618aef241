"""Runtime configuration (variant mapping) and driver bookkeeping."""

import pytest

from repro import Session
from repro.errors import ConfigError
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.runtime.driver import run_variant_suite
from repro.simmpi import SUM, FailureSchedule
from repro.statesave import Storage


def derived(run_cfg):
    """The modern path: C3Config derived from the declared stage stack."""
    return run_cfg.stack_spec().c3_config(run_cfg)


class TestVariantMapping:
    def test_unmodified(self):
        cfg = derived(RunConfig(nprocs=2, variant=Variant.UNMODIFIED))
        assert not cfg.protocol_enabled
        assert not cfg.piggyback_enabled
        assert cfg.checkpoint_interval is None

    def test_piggyback(self):
        cfg = derived(RunConfig(nprocs=2, variant=Variant.PIGGYBACK))
        assert cfg.protocol_enabled
        assert cfg.piggyback_enabled
        assert cfg.checkpoint_interval is None

    def test_no_app_state(self):
        cfg = derived(RunConfig(nprocs=2, variant=Variant.NO_APP_STATE,
                                checkpoint_interval=0.5))
        assert cfg.protocol_enabled
        assert not cfg.save_app_state
        assert cfg.checkpoint_interval == 0.5

    def test_full(self):
        cfg = derived(RunConfig(nprocs=2, variant=Variant.FULL,
                                checkpoint_interval=0.5))
        assert cfg.save_app_state

    def test_checkpointing_active_flag(self):
        assert RunConfig(nprocs=2, variant=Variant.FULL).checkpointing_active
        assert not RunConfig(nprocs=2, variant=Variant.PIGGYBACK).checkpointing_active
        assert not RunConfig(
            nprocs=2, variant=Variant.FULL, checkpoint_interval=None
        ).checkpointing_active

    def test_paper_names(self):
        assert Variant.UNMODIFIED.paper_name == "Unmodified Program"
        assert Variant.FULL.paper_name == "Full Checkpoints"

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(nprocs=2, max_restarts=-1)
        with pytest.raises(ConfigError):
            RunConfig(nprocs=2, checkpoint_interval=0.0)


def counting_app(n=80):
    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
        while state["i"] < n:
            state["acc"] += (yield from ctx.mpi.co_allreduce(state["i"], SUM))
            state["i"] += 1
            yield from ctx.co_potential_checkpoint()
        return state["acc"]

    return app


class TestDriver:
    CFG = dict(nprocs=3, seed=4, checkpoint_interval=0.002, detector_timeout=0.04)

    def test_attempt_records(self):
        out = run_with_recovery(
            counting_app(), RunConfig(**self.CFG),
            failures=FailureSchedule.single(0.004, 1),
        )
        assert len(out.attempts) == 2
        first, second = out.attempts
        assert first.failed and not first.completed
        assert second.completed and not second.failed
        assert first.index == 0 and second.index == 1
        assert out.restarts == 1

    def test_failure_schedule_not_replayed_across_attempts(self):
        """A consumed kill event must not re-fire on the restarted attempt."""
        sched = FailureSchedule.single(0.004, 2)
        out = run_with_recovery(counting_app(), RunConfig(**self.CFG), failures=sched)
        assert len(out.attempts) == 2
        assert sched.next_time() is None

    def test_layer_stats_from_final_attempt(self):
        out = run_with_recovery(counting_app(), RunConfig(**self.CFG))
        assert len(out.layer_stats) == 3
        assert all(s.collectives > 0 for s in out.layer_stats)

    def test_storage_reused_across_attempts(self):
        storage = Storage(None)
        out = run_with_recovery(
            counting_app(), RunConfig(**self.CFG),
            failures=FailureSchedule.single(0.005, 0),
            storage=storage,
        )
        assert out.attempts[1].started_from_epoch == storage.committed_epoch() or \
            out.attempts[1].started_from_epoch <= storage.committed_epoch()

    def test_disk_backed_storage(self, tmp_path):
        cfg = RunConfig(storage_path=str(tmp_path / "ckpt"), **self.CFG)
        gold = run_with_recovery(counting_app(), RunConfig(**self.CFG))
        out = run_with_recovery(
            counting_app(), cfg, failures=FailureSchedule.single(0.005, 1)
        )
        assert out.results == gold.results

    def test_checkpoints_committed_counts_waves_not_epoch_index(self):
        """Regression: the outcome must report how many waves committed
        *during the run*, not the storage's last committed epoch index.
        A second run sharing the storage resumes from the first run's
        commit, so its epoch index keeps growing while its own wave count
        starts from zero."""
        storage = Storage(None)
        first = run_with_recovery(counting_app(), RunConfig(**self.CFG),
                                  storage=storage)
        assert first.checkpoints_committed >= 1
        assert first.checkpoints_committed == storage.commits
        second = run_with_recovery(counting_app(), RunConfig(**self.CFG),
                                   storage=storage)
        own_commits = storage.commits - first.checkpoints_committed
        assert second.checkpoints_committed == own_commits
        # The stale behaviour reported the (larger) cumulative epoch index.
        assert storage.committed_epoch() > second.checkpoints_committed
        # Same discipline for byte accounting: per-run, not cumulative.
        assert (
            first.storage_bytes_written + second.storage_bytes_written
            == storage.bytes_written
        )

    def test_run_variant_suite(self):
        outcomes = run_variant_suite(counting_app(30), RunConfig(**self.CFG))
        results = {v: o.results for v, o in outcomes.items()}
        # Every variant computes the same application answer.
        assert len({tuple(r) for r in results.values()}) == 1
        assert outcomes[Variant.FULL].checkpoints_committed >= 1
        assert outcomes[Variant.PIGGYBACK].checkpoints_committed == 0


class TestRankMainForms:
    """A rank main is a generator function or a precompiled app."""

    def test_plain_main_rejected_before_any_rank_runs(self):
        calls = []

        def plain_sync_main(ctx):
            calls.append(ctx.rank)
            return ctx.mpi.allreduce(ctx.rank, SUM)

        with pytest.raises(ConfigError, match="generator function.*PrecompiledApp"):
            Session().run(plain_sync_main, RunConfig(nprocs=2))
        assert calls == []

    def test_plain_main_with_params_rejected_too(self):
        with pytest.raises(ConfigError, match="plain_sync_main"):
            Session().run(plain_sync_main, RunConfig(nprocs=2), params=3)

    def test_generator_main_runs(self):
        def generator_main(ctx):
            return (yield from ctx.mpi.co_allreduce(ctx.rank, SUM))

        assert Session().run(generator_main, RunConfig(nprocs=3)).results == [3, 3, 3]


def plain_sync_main(ctx):
    return ctx.params
