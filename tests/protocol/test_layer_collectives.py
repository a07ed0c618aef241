"""Protocol-layer collectives: result logging, conjunction, barrier alignment
(paper Section 4.5 / Figure 5)."""

import pickle

import pytest

from repro.errors import ProtocolError
from repro.protocol import C3Config, ProtocolPipeline
from repro.protocol.mpi_state import WORLD_HANDLE
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM, FailureSchedule, run_simple
from repro.statesave import Storage


def wire(ctx, storage, interval=None):
    cfg = C3Config(checkpoint_interval=interval, save_app_state=False)
    return ProtocolPipeline(ctx.comm, cfg, storage)


class TestCollectiveCorrectness:
    def test_all_collectives_through_layer(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage, interval=0.002)
            out = []
            for i in range(25):
                out.append((yield from layer.co_allreduce(ctx.rank + i, SUM)))
                out.append(tuple((yield from layer.co_allgather(ctx.rank))))
                out.append((yield from layer.co_bcast(i if ctx.rank == 1 else None, root=1)))
                out.append((yield from layer.co_reduce(1, SUM, root=0)))
                sc = yield from layer.co_scatter(list(range(ctx.size)) if ctx.rank == 0 else None)
                out.append(sc)
                yield from layer.co_barrier()
                yield from layer.co_potential_checkpoint()
            return out

        result = run_simple(main, nprocs=4, seed=0)
        assert result.completed
        # Five entries per iteration: allreduce, allgather, bcast, reduce,
        # scatter.  The first three must agree across ranks; reduce is
        # root-only and scatter is rank-specific.
        for i in range(25):
            assert len({r[i * 5] for r in result.results}) == 1      # allreduce
            assert len({r[i * 5 + 1] for r in result.results}) == 1  # allgather
            assert len({r[i * 5 + 2] for r in result.results}) == 1  # bcast
            assert result.results[0][i * 5 + 3] == 4                 # reduce@root
            for rank, r in enumerate(result.results):
                assert r[i * 5 + 4] == rank                          # scatter

    def test_command_exchange_precedes_data(self):
        """The paper: every data collective is preceded by a command
        collective, visible as roughly doubled message counts vs raw."""
        storage = Storage()

        def with_layer(ctx):
            layer = wire(ctx, storage)
            for _ in range(10):
                yield from layer.co_allgather(ctx.rank)
            return None

        def raw(ctx):
            for _ in range(10):
                yield from ctx.comm.co_allgather(ctx.rank)
            return None

        layered = run_simple(with_layer, nprocs=4, seed=1)
        plain = run_simple(raw, nprocs=4, seed=1)
        assert layered.network.delivered >= 1.8 * plain.network.delivered


class TestResultLogging:
    def test_results_logged_while_logging(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            logged = 0
            for i in range(40):
                yield from layer.co_allreduce(i, SUM)
                yield from layer.co_potential_checkpoint()
                logged = max(logged, layer.stats.collective_results_logged)
            return logged

        result = run_simple(main, nprocs=3, seed=2)
        assert result.completed
        assert all(v > 0 for v in result.results)

    def test_logged_results_in_stable_storage(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(40):
                yield from layer.co_allreduce(i, SUM)
                yield from layer.co_potential_checkpoint()
            return None

        result = run_simple(main, nprocs=2, seed=3)
        assert result.completed
        epoch = storage.committed_epoch()
        logs = storage.read_log(0, epoch)
        assert len(logs.collectives) > 0
        assert all(r.kind == "allreduce" for r in logs.collectives.records)

    def test_barrier_never_logged(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(30):
                yield from layer.co_barrier()
                yield from layer.co_potential_checkpoint()
            return None

        result = run_simple(main, nprocs=2, seed=4)
        assert result.completed
        epoch = storage.committed_epoch()
        for rank in range(2):
            logs = storage.read_log(rank, epoch)
            assert all(r.kind != "barrier" for r in logs.collectives.records)


class TestBarrierAlignment:
    def test_barrier_forces_laggard_checkpoint(self):
        """Section 4.5: a process reaching a barrier behind its peers'
        epoch takes its local checkpoint first, so the barrier executes
        with all participants in the same epoch."""
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            # Rank 0 checkpoints eagerly at the next potential checkpoint;
            # rank 1 NEVER calls potential_checkpoint before the barrier, so
            # only the barrier alignment can advance its epoch.
            if ctx.rank == 0:
                for _ in range(5):
                    yield from layer.co_send(1, 1, tag=1)
                    yield from layer.co_potential_checkpoint()
                yield from layer.co_barrier()
            else:
                for _ in range(5):
                    yield from layer.co_recv(source=0, tag=1)
                yield from layer.co_barrier()
            return layer.state.epoch

        result = run_simple(main, nprocs=2, seed=5)
        assert result.completed
        assert result.results == [1, 1]

    def test_aligned_barrier_no_extra_checkpoint(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            for _ in range(5):
                yield from layer.co_barrier()
            return (layer.state.epoch, layer.stats.checkpoints_taken)

        result = run_simple(main, nprocs=3, seed=6)
        assert result.completed
        assert all(r == (0, 0) for r in result.results)


def _barriers(count):
    def app(ctx):
        for _ in range(count):
            yield from ctx.mpi.co_barrier()
        return ctx.rank

    return app


class TestBarrierExchange:
    @pytest.mark.parametrize("variant", ["V1", "V2", "V3"])
    def test_one_control_exchange_per_barrier(self, variant):
        """At 4 ranks a V1+ barrier is its alignment allgather, which
        carries the command word (recursive doubling: 2 rounds x 4 ranks)
        and the dissemination barrier (2 rounds x 4 ranks): 16 messages,
        twice the raw barrier's 8, with no second command exchange."""
        counts = {}
        for label in ("V0", variant):
            cfg = RunConfig(nprocs=4, seed=1, variant=Variant.coerce(label),
                            checkpoint_interval=None)
            for n in (0, 10):
                out = run_with_recovery(_barriers(n), cfg)
                assert out.results == [0, 1, 2, 3]
                counts[label, n] = out.network_messages
        assert counts["V0", 10] - counts["V0", 0] == 10 * 8
        assert counts[variant, 10] - counts[variant, 0] == 10 * 16

    @pytest.mark.parametrize("call", ["allreduce", "barrier"])
    def test_epoch_past_the_command_word_raises(self, call):
        """The command word is ``epoch << 1 | amLogging`` in 32 bits."""
        def main(ctx):
            layer = ProtocolPipeline(ctx.comm, C3Config(checkpoint_interval=None))
            layer.state.epoch = 1 << 31
            if call == "barrier":
                yield from layer.co_barrier()
            else:
                yield from layer.co_allreduce(1, SUM)

        with pytest.raises(ProtocolError, match="does not fit in 32 bits"):
            run_simple(main, nprocs=2, seed=0)

    def test_barrier_counts_as_one_collective(self):
        def main(ctx):
            layer = ProtocolPipeline(ctx.comm, C3Config(checkpoint_interval=None))
            for _ in range(3):
                yield from layer.co_barrier()
            return layer.stats.collectives, layer.coll_seqs[WORLD_HANDLE]

        result = run_simple(main, nprocs=4, seed=2)
        assert result.completed and result.results == [(3, 3)] * 4


def _barrier_loop(n_iters=60):
    """A barrier at the top of every iteration (a potential checkpoint
    location); odd ranks never call potential_checkpoint, so each wave
    checkpoints them inside a barrier, by the alignment rule alone."""

    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        while state["i"] < n_iters:
            yield from ctx.mpi.co_barrier()
            yield from ctx.mpi.co_send(state["acc"] / 3.0 + ctx.rank, right, tag=1)
            x = yield from ctx.mpi.co_recv(source=left, tag=1)
            state["acc"] = state["acc"] * 0.7 + x
            state["i"] += 1
            if ctx.rank % 2 == 0:
                yield from ctx.co_potential_checkpoint()
        return state["acc"]

    return app


class TestBarrierRecovery:
    def test_kill_after_a_wave_in_a_barrier_loop_recovers_bitwise(self):
        cfg = RunConfig(nprocs=4, seed=11, variant=Variant.FULL,
                        checkpoint_interval=0.0015, detector_timeout=0.03)
        gold = run_with_recovery(_barrier_loop(), cfg)
        assert gold.completed and gold.checkpoints_committed >= 2
        # the odd ranks' checkpoints are all forced inside a barrier
        assert [s.checkpoints_taken >= 2 for s in gold.layer_stats] == [True] * 4
        kill_at = gold.attempts[0].virtual_time * 0.6
        out = run_with_recovery(
            _barrier_loop(), cfg, failures=FailureSchedule.single(time=kill_at, rank=1)
        )
        assert out.restarts == 1
        assert out.attempts[1].started_from_epoch >= 1
        assert pickle.dumps(out.results) == pickle.dumps(gold.results)
