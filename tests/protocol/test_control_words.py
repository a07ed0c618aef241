"""Control words on the wire: Section 4.1's tokens as single ints.

Every token is one packed ``int`` (``repro.protocol.control``), so it costs
``HEADER_BYTES + 8`` on the wire, and the checkpoint stage dispatches on the
word's kind with the same checks the protocol always made: an unknown kind,
a stale or future ``mySendCount`` epoch and an initiator-only kind at
another rank raise ``ProtocolError``.
"""

import pytest

from repro.errors import ProtocolError
from repro.protocol import C3Config, ProtocolPipeline
from repro.protocol import control as ctl
from repro.simmpi import run_simple
from repro.simmpi.constants import TAG_CONTROL
from repro.simmpi.datatypes import HEADER_BYTES
from repro.simmpi.network import Network
from repro.statesave import Storage


def _one_wave(ctx, storage):
    """Run one forced wave on a ring; return the rank's layer at epoch 1."""
    layer = ProtocolPipeline(
        ctx.comm, C3Config(checkpoint_interval=None, save_app_state=False), storage
    )
    if ctx.rank == 0:
        layer.request_checkpoint_now()
    for i in range(40):
        yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
        yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
        yield from layer.co_potential_checkpoint()
    return layer


class TestWaveOnTheWire:
    def test_every_control_envelope_of_a_4_rank_wave_is_one_word(self, monkeypatch):
        """One wave at 4 ranks puts exactly 24 control words on the wire:
        3 pleaseCheckpoint + 12 mySendCount + 3 readyToStopLogging +
        3 stopLogging + 3 stoppedLogging (rank 0, the initiator, handles
        its own tokens in place).  Each is HEADER_BYTES + 8 = 40 B."""
        posted = []
        real_post = Network.post

        def recording_post(self, env, now):
            if env.tag == TAG_CONTROL:
                posted.append(env)
            return real_post(self, env, now)

        monkeypatch.setattr(Network, "post", recording_post)
        storage = Storage()

        def main(ctx):
            layer = yield from _one_wave(ctx, storage)
            return layer.state.epoch

        result = run_simple(main, nprocs=4, seed=0)
        assert result.completed and result.results == [1] * 4
        assert storage.committed_epoch() == 1
        assert HEADER_BYTES + 8 == 40
        assert [env.nbytes for env in posted] == [40] * 24
        kinds = {}
        for env in posted:
            kind, epoch, count = ctl.unpack_control(env.payload)
            assert epoch == 1
            assert count == 0 or kind == ctl.MY_SEND_COUNT
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == {
            ctl.PLEASE_CHECKPOINT: 3, ctl.MY_SEND_COUNT: 12,
            ctl.READY_TO_STOP_LOGGING: 3, ctl.STOP_LOGGING: 3,
            ctl.STOPPED_LOGGING: 3,
        }
        for env in posted:
            kind = ctl.unpack_control(env.payload)[0]
            if kind in (ctl.READY_TO_STOP_LOGGING, ctl.STOPPED_LOGGING):
                assert env.dest == 0 != env.source, env
            elif kind in (ctl.PLEASE_CHECKPOINT, ctl.STOP_LOGGING):
                assert env.source == 0 != env.dest, env


class TestDispatchChecks:
    def _at_rank_1(self, check):
        """Run one wave on 2 ranks, then ``check(layer)`` at rank 1."""
        storage = Storage()

        def main(ctx):
            layer = yield from _one_wave(ctx, storage)
            if ctx.rank == 1:
                yield from check(layer)
            return layer.state.epoch

        result = run_simple(main, nprocs=2, seed=3)
        assert result.completed and result.results == [1, 1]

    def test_stale_or_future_send_count_epoch_raises(self):
        def check(layer):
            handle = layer.ckpt.co_handle_control
            for epoch in (0, 3):
                word = ctl.pack_control(ctl.MY_SEND_COUNT, epoch, 2)
                with pytest.raises(ProtocolError, match=f"mySendCount for epoch {epoch} "):
                    yield from handle(word, 0)
            for epoch, count in ((1, 4), (2, 5)):  # this epoch and the next
                yield from handle(ctl.pack_control(ctl.MY_SEND_COUNT, epoch, count), 0)
                assert layer.state.total_sent == {0: count}

        self._at_rank_1(check)

    def test_unknown_kind_or_word_raises(self):
        def check(layer):
            handle = layer.ckpt.co_handle_control
            for kind in (6, 7):
                with pytest.raises(ProtocolError, match=f"unknown control kind {kind}"):
                    yield from handle(ctl.pack_control(kind, 1), 0)
            for payload in ("stopLogging", (1, 1), -1, 1 << 63):
                with pytest.raises(ProtocolError, match="not a 63-bit value"):
                    yield from handle(payload, 0)

        self._at_rank_1(check)

    def test_initiator_only_kinds_raise_at_another_rank(self):
        def check(layer):
            assert layer.initiator is None
            names = {
                ctl.READY_TO_STOP_LOGGING: "readyToStopLogging",
                ctl.STOPPED_LOGGING: "stoppedLogging",
                ctl.REPLAY_DONE: "replayDone",
            }
            for kind, name in names.items():
                with pytest.raises(ProtocolError, match=f"initiator-only control '{name}'"):
                    yield from layer.ckpt.co_handle_control(ctl.pack_control(kind, 1), 0)

        self._at_rank_1(check)

    def test_sender_is_the_envelope_source(self):
        """Tokens carry no sender: the initiator credits the rank its
        handler is given (the envelope's source, or its own rank)."""
        storage = Storage()

        def main(ctx):
            layer = yield from _one_wave(ctx, storage)
            if ctx.rank == 0:
                (wave,) = layer.initiator.completed_waves
                return sorted(wave.ready_times), sorted(wave.stopped_times)
            return None

        result = run_simple(main, nprocs=3, seed=4)
        assert result.completed
        assert result.results[0] == ([0, 1, 2], [0, 1, 2])
