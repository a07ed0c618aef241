"""In-simulation protocol layer tests: checkpoint waves, logging, counters.

These run real multi-rank programs inside the simulator with manually wired
C3 layers, checking Figure 4's observable behaviour: wave completion, log
content, message classification effects, and the mySendCount bookkeeping.
"""

import pytest

from repro.protocol import C3Config, ProtocolPipeline
from repro.protocol.stages import FULL_STACK, build_stages
from repro.simmpi import run_simple
from repro.statesave import Storage


def pipeline(ctx, cfg, storage, stack=FULL_STACK, **kwargs):
    return ProtocolPipeline(
        ctx.comm, stages=build_stages(stack, cfg), config=cfg, storage=storage, **kwargs
    )


def wire(ctx, storage, interval=None, **cfg_kwargs):
    cfg = C3Config(checkpoint_interval=interval, save_app_state=False, **cfg_kwargs)
    return pipeline(ctx, cfg, storage)


class TestWaveCompletion:
    def test_single_wave_commits(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(40):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return (layer.state.epoch, layer.stats.checkpoints_taken)

        result = run_simple(main, nprocs=4, seed=0)
        assert result.completed
        assert storage.committed_epoch() == 1
        assert all(r == (1, 1) for r in result.results)

    def test_interval_driven_waves(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage, interval=0.002)
            for i in range(150):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return layer.state.epoch

        result = run_simple(main, nprocs=3, seed=1)
        assert result.completed
        epochs = set(result.results)
        assert len(epochs) == 1
        assert storage.committed_epoch() >= 2

    def test_every_rank_state_and_log_on_disk(self, tmp_path):
        storage = Storage(str(tmp_path))

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(30):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return layer.state.epoch

        result = run_simple(main, nprocs=3, seed=2)
        assert result.completed
        epoch = storage.committed_epoch()
        assert storage.has_complete_epoch(3, epoch)
        data = storage.read_state(1, epoch)
        assert data.rank == 1 and data.epoch == epoch

    def test_gc_keeps_only_committed(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage, interval=0.001)
            for i in range(200):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return layer.state.epoch

        run_simple(main, nprocs=2, seed=3)
        committed = storage.committed_epoch()
        assert committed >= 2
        # Only the committed epoch's objects survive garbage collection.
        assert storage.has_complete_epoch(2, committed)
        assert not storage.store.has_generation("rank0/state", committed - 1)


class TestWildcardReceiveAcrossWave:
    def test_wildcard_recv_gets_the_payload_not_the_protocol_traffic(self):
        """``ANY_TAG`` means any *user* tag: a rank blocked in
        ``recv(ANY_SOURCE, ANY_TAG)`` while a wave's control messages
        arrive must still receive the application payload, and the wave
        must commit (the wildcard used to steal ``pleaseCheckpoint``)."""
        storage = Storage()

        def main(ctx):
            layer = pipeline(
                ctx, C3Config(checkpoint_interval=None), storage,
                state_provider=lambda: {"rank": ctx.rank},
            )
            got = None
            if ctx.rank == 3:
                got = yield from layer.co_recv()  # ANY_SOURCE, ANY_TAG
                for peer in (0, 1, 2):
                    yield from layer.co_send("release", peer, tag=6)
            else:
                if ctx.rank == 0:
                    layer.request_checkpoint_now()
                    yield from layer.co_potential_checkpoint()  # wave starts: pleaseCheckpoint is out
                    yield from layer.co_send("go", 1, tag=5)
                elif ctx.rank == 1:
                    yield from layer.co_recv(source=0, tag=5)  # ... before the payload is posted
                    yield from layer.co_send("payload", 3, tag=9)
                yield from layer.co_recv(source=3, tag=6)
            for i in range(30):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return (got, layer.state.epoch, layer.stats.control_messages)

        # Zero jitter: the control message, posted first, is delivered first.
        result = run_simple(main, nprocs=4, seed=0, jitter=0.0)
        assert result.completed
        assert result.results[3][0] == "payload"
        assert all(epoch == 1 for _, epoch, _ in result.results)
        assert all(control > 0 for _, _, control in result.results)
        assert storage.committed_epoch() == 1


class TestLoggingBehaviour:
    def test_logging_starts_at_checkpoint_and_stops(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            saw_logging = False
            for i in range(60):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
                saw_logging = saw_logging or layer.state.am_logging
            return (saw_logging, layer.state.am_logging, layer.stats.log_finalizations)

        result = run_simple(main, nprocs=3, seed=4)
        assert result.completed
        for saw, still, finals in result.results:
            assert saw, "rank never entered the logging window"
            assert not still, "logging never terminated"
            assert finals == 1

    def test_match_records_written_while_logging(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(50):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return None

        result = run_simple(main, nprocs=2, seed=5)
        assert result.completed
        epoch = storage.committed_epoch()
        logs = storage.read_log(0, epoch)
        # Some receives happened inside the logging window.
        assert len(logs.matches) > 0
        # Every late record is referenced by a match record.
        late_ids = {(r.source, r.message_id) for r in logs.late.records}
        match_late = {
            (m.source, m.message_id) for m in logs.matches.records if m.was_late
        }
        assert late_ids == match_late

    def test_nondet_logged_only_while_logging(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            yield from layer.co_nondet(lambda: 1)  # before any checkpoint: not logged
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(40):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
                yield from layer.co_nondet(lambda: i)
            return layer.stats.nondet_logged

        result = run_simple(main, nprocs=2, seed=6)
        assert result.completed
        for logged in result.results:
            assert logged > 0


class TestVariantConfigs:
    def test_piggyback_only_never_checkpoints(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)  # no interval, no force
            for i in range(30):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return (layer.state.epoch, layer.stats.checkpoints_taken)

        result = run_simple(main, nprocs=2, seed=7)
        assert result.completed
        assert all(r == (0, 0) for r in result.results)
        assert storage.committed_epoch() is None

    def test_unpiggybacked_mode(self):
        storage = Storage()

        def main(ctx):
            cfg = C3Config(protocol_enabled=False, piggyback_enabled=False,
                           save_app_state=False)
            layer = pipeline(ctx, cfg, storage, stack=())
            yield from layer.co_send("x", 1 - ctx.rank, tag=1)
            return (yield from layer.co_recv(source=1 - ctx.rank, tag=1))

        result = run_simple(main, nprocs=2, seed=8)
        assert result.completed
        assert result.results == ["x", "x"]

    @pytest.mark.parametrize("codec", ["full", "packed"])
    def test_both_codecs_complete_waves(self, codec):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage, interval=0.002, codec=codec)
            for i in range(80):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_potential_checkpoint()
            return layer.state.epoch

        result = run_simple(main, nprocs=3, seed=9)
        assert result.completed
        assert storage.committed_epoch() >= 1
