"""Failure in the middle of a checkpoint wave: the partially written epoch
must never be used for recovery (commit discipline, paper Section 4.1
phase 4 + our storage commit record)."""


from repro.protocol import C3Config, ProtocolPipeline
from repro.runtime import RunConfig, run_with_recovery
from repro.simmpi import (
    SUM,
    FailureSchedule,
    KillEvent,
    SimConfig,
    Simulator,
)
from repro.statesave import Storage


def make_pipeline(comm, cfg, storage):
    return ProtocolPipeline(comm, cfg, storage)


class TestPartialWaveIgnored:
    def test_uncommitted_epoch_left_on_storage_is_not_used(self):
        """Rank 0 takes its local epoch-1 checkpoint, but the wave can never
        complete (rank 1 refuses to reach a potential checkpoint before the
        injected failure).  Storage then holds rank 0's epoch-1 state with
        no commit record — recovery must restart from scratch."""
        storage = Storage()

        def main(ctx):
            layer = make_pipeline(ctx.comm, C3Config(save_app_state=False), storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(400):
                yield from layer.co_send(i, 1 - ctx.rank, tag=1)
                yield from layer.co_recv(source=1 - ctx.rank, tag=1)
                if ctx.rank == 0:
                    yield from layer.co_potential_checkpoint()
            return layer.state.epoch

        sim = Simulator(
            SimConfig(nprocs=2, seed=4, detector_timeout=0.02),
            main,
            failures=FailureSchedule.single(0.004, 1),
        )
        result = sim.run()
        assert result.failed
        # Rank 0 wrote its local checkpoint ...
        data = storage.read_state(0, 1)
        assert data.epoch == 1
        # ... but the global checkpoint was never committed.
        assert storage.committed_epoch() is None

    def test_driver_restarts_fresh_after_mid_wave_failure(self):
        """End-to-end: failure while the first wave is still collecting —
        the second attempt starts from scratch and still gets the right
        answer."""
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
            while state["i"] < 120:
                state["acc"] += (yield from ctx.mpi.co_allreduce(state["i"], SUM))
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["acc"]

        cfg = RunConfig(nprocs=3, seed=6, checkpoint_interval=0.0015,
                        detector_timeout=0.03)
        gold = run_with_recovery(app, cfg)
        first_commit = None
        # Find a kill time squarely inside the first wave: just after the
        # interval elapses (wave initiation) but well before it can commit.
        out = run_with_recovery(
            app, cfg, failures=FailureSchedule.single(0.00155, 2)
        )
        assert out.results == gold.results

    def test_progress_across_repeated_mid_run_failures(self):
        """Each failed attempt still advances the recovery line: later
        attempts restart from the same or later epochs, never earlier."""
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
            while state["i"] < 200:
                state["acc"] += (yield from ctx.mpi.co_allreduce(1, SUM))
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["acc"]

        cfg = RunConfig(nprocs=3, seed=2, checkpoint_interval=0.002,
                        detector_timeout=0.03)
        out = run_with_recovery(
            app, cfg,
            failures=FailureSchedule(
                [KillEvent(0.006, 0), KillEvent(0.008, 1), KillEvent(0.010, 2)]
            ),
        )
        epochs = [a.started_from_epoch or 0 for a in out.attempts]
        assert epochs == sorted(epochs), f"recovery line moved backwards: {epochs}"
        assert epochs[-1] >= 1, "no forward progress despite checkpoints"
        assert out.results == [600 * 3 // 3 * 1 for _ in range(3)] or len(set(out.results)) == 1
