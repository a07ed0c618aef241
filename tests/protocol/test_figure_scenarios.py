"""Directed scenario tests for the paper's figures.

These reconstruct the exact situations the paper draws:

* Figure 3 — the three message classes on concrete executions;
* Figure 4 — the communicationEventHandler actions, fed crafted envelopes;
* Figure 5 — collective calls spanning a checkpoint (case A: a participant
  has not yet checkpointed ⇒ results must be logged).
"""

from repro.protocol import C3Config, ProtocolPipeline
from repro.simmpi import SUM, run_simple
from repro.simmpi.message import Envelope
from repro.statesave import Storage
from repro.util.intpack import COLOR_BIT, LOGGING_BIT


def wire(ctx, storage):
    return ProtocolPipeline(ctx.comm, C3Config(save_app_state=False), storage)


def craft(layer, source, epoch, am_logging, message_id, tag=1, payload="x"):
    """An envelope as the layer would receive it from ``source``: the
    sender's piggyback word, built from the layout's constants."""
    word = message_id
    if epoch & 1:
        word |= COLOR_BIT
    if am_logging:
        word |= LOGGING_BIT
    return Envelope(
        source=source,
        dest=layer.rank,
        tag=tag,
        context=0,
        payload=payload,
        piggyback=word,
    )


def deliver(layer, env):
    """Run the layer's handler on ``env`` as its receives do: the plain
    call, then the generator it hands back for a class that suspends."""
    rest = layer._classify_and_deliver(env)
    if rest is not None:
        yield from rest
    return env.payload


class TestFigure4Handler:
    """Unit-feeds to _classify_and_deliver inside a one-rank simulation
    (the layer needs a live comm for its control sends)."""

    def _with_layer(self, body, nprocs=2):
        storage = Storage()

        def main(ctx):
            if ctx.rank == 0:
                layer = wire(ctx, storage)
                return (yield from body(layer, storage))
            return None

        result = run_simple(main, nprocs=nprocs, seed=0)
        assert result.completed
        return result.results[0]

    def test_intra_epoch_message_counted(self):
        def body(layer, storage):
            env = craft(layer, source=1, epoch=0, am_logging=False, message_id=0)
            yield from deliver(layer, env)
            return layer.state.current_receive_count[1]

        assert self._with_layer(body) == 1

    def test_early_message_records_id(self):
        def body(layer, storage):
            # Sender already in epoch 1, this rank still in epoch 0.
            env = craft(layer, source=1, epoch=1, am_logging=True, message_id=7)
            yield from deliver(layer, env)
            return list(layer.state.early_ids[1])

        assert self._with_layer(body) == [7]

    def test_late_message_logged_and_counted(self):
        def body(layer, storage):
            layer.state.epoch = 1
            layer.state.am_logging = True
            env = craft(layer, source=1, epoch=0, am_logging=True,
                        message_id=3, payload=[1, 2])
            yield from deliver(layer, env)
            rec = layer.logs.late.records[0]
            return (rec.source, rec.message_id, rec.payload,
                    layer.state.previous_receive_count[1])

        assert self._with_layer(body) == (1, 3, [1, 2], 1)

    def test_intra_from_non_logging_sender_terminates_logging(self):
        """Phase 4 condition (ii): hearing from a process that stopped
        logging means every process has checkpointed."""
        def body(layer, storage):
            layer.state.epoch = 1
            layer.state.am_logging = True
            layer.logs.epoch = 1
            env = craft(layer, source=1, epoch=1, am_logging=False, message_id=0)
            yield from deliver(layer, env)
            return (layer.state.am_logging, layer.stats.log_finalizations)

        # Logging terminated exactly once, by the message.
        assert self._with_layer(body) == (False, 1)

    def test_logged_payload_immune_to_mutation(self):
        """The log deep-copies payloads: the application mutating a received
        object must not corrupt the replay log."""
        def body(layer, storage):
            layer.state.epoch = 1
            layer.state.am_logging = True
            payload = [1, 2]
            env = craft(layer, source=1, epoch=0, am_logging=True,
                        message_id=0, payload=payload)
            out = yield from deliver(layer, env)
            out.append(999)  # app mutates its copy
            return layer.logs.late.records[0].payload

        assert self._with_layer(body) == [1, 2]

    def test_match_record_written_while_logging(self):
        def body(layer, storage):
            layer.state.epoch = 1
            layer.state.am_logging = True
            env = craft(layer, source=1, epoch=1, am_logging=True, message_id=5)
            yield from deliver(layer, env)
            rec = layer.logs.matches.records[0]
            return (rec.source, rec.message_id, rec.was_late)

        assert self._with_layer(body) == (1, 5, False)


class TestFigure3Classes:
    """End-to-end: all three message classes arise in one checkpoint wave
    and land in the right books."""

    def test_wave_produces_late_and_early_messages(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            # Heavy cross-traffic while the wave is in flight maximises the
            # chance of late/early classifications at *some* rank.
            for i in range(120):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_send(i, (ctx.rank + 2) % ctx.size, tag=2)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 2) % ctx.size, tag=2)
                if i % 3 == ctx.rank % 3:
                    yield from layer.co_potential_checkpoint()
            return (layer.stats.late_logged, layer.stats.early_recorded)

        # Random delivery ordering stirs the pot.
        result = run_simple(main, nprocs=3, seed=12, ordering="random")
        assert result.completed
        late_total = sum(r[0] for r in result.results)
        assert late_total > 0, "no late messages arose; scenario too tame"
        epoch = storage.committed_epoch()
        assert epoch == 1

    def test_early_ids_saved_in_checkpoint(self):
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            for i in range(100):
                yield from layer.co_send(i, (ctx.rank + 1) % ctx.size, tag=1)
                yield from layer.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
                # Rank 1 drags its feet so rank 0's epoch-1 messages reach
                # it early (before its own checkpoint).
                if ctx.rank == 0 or i > 40:
                    yield from layer.co_potential_checkpoint()
            return layer.stats.early_recorded

        result = run_simple(main, nprocs=2, seed=3)
        assert result.completed
        early_at_1 = result.results[1]
        if early_at_1:  # classification depends on timing; if it happened:
            data = storage.read_state(1, 1)
            assert sum(len(v) for v in data.early_ids.values()) > 0


class TestFigure5Collectives:
    def test_case_a_result_logged_when_peer_not_yet_checkpointed(self):
        """Call A: P (post-checkpoint, logging) and R (pre-checkpoint) in
        one allreduce ⇒ P must log the result."""
        storage = Storage()

        def main(ctx):
            layer = wire(ctx, storage)
            if ctx.rank == 0:
                layer.request_checkpoint_now()
            # Rank 0 checkpoints before the collective; rank 1 only after.
            if ctx.rank == 0:
                yield from layer.co_potential_checkpoint()     # -> epoch 1, logging
            r = yield from layer.co_allreduce(ctx.rank + 1, SUM)
            if ctx.rank == 1:
                yield from layer.co_potential_checkpoint()     # now catches up
            # Drain the wave.
            for i in range(30):
                yield from layer.co_send(i, 1 - ctx.rank, tag=4)
                yield from layer.co_recv(source=1 - ctx.rank, tag=4)
                yield from layer.co_potential_checkpoint()
            return (r, layer.stats.collective_results_logged)

        result = run_simple(main, nprocs=2, seed=1)
        assert result.completed
        assert result.results[0][0] == 3  # correct allreduce value
        assert result.results[0][1] >= 1, "rank 0 failed to log case-A result"
        # The logged record is in rank 0's stable-storage epoch-1 log.
        logs = storage.read_log(0, 1)
        assert any(r.kind == "allreduce" and r.result == 3
                   for r in logs.collectives.records)
