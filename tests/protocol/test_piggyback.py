"""The piggyback word: as a send stamps it, through the receive handler,
and its 30-bit ID bound.

A message carries one 32-bit word (color, amLogging, messageID; the
layout in :mod:`repro.util.intpack`).  The receiver classifies it by the
paper's color rule (Section 4.2).  Here crafted words are fed to
``ProtocolPipeline._classify_and_deliver`` and its effect is compared with
a reference rule on absolute epochs (Definition 1): the two agree
whenever the protocol's invariant |sender_epoch - receiver_epoch| <= 1
holds and the receiver logs exactly when the protocol allows.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import PiggybackError
from repro.protocol import C3Config, ProtocolPipeline
from repro.simmpi import run_simple
from repro.simmpi.message import Envelope
from repro.statesave import Storage
from repro.util.intpack import COLOR_BIT, LOGGING_BIT, MAX_MESSAGE_ID

SRC = 1


def word(epoch, am_logging, message_id):
    """A sender's piggyback word, built from the layout's constants."""
    out = message_id
    if epoch & 1:
        out |= COLOR_BIT
    if am_logging:
        out |= LOGGING_BIT
    return out


def on_rank0(body):
    """Run ``body(layer)`` on rank 0 of a two-rank world, with a V2
    pipeline (the handler's late and finalize paths need its checkpoint
    stage), and return its result."""
    storage = Storage()

    def main(ctx):
        if ctx.rank == 0:
            layer = ProtocolPipeline(ctx.comm, C3Config(save_app_state=False), storage)
            return (yield from body(layer))
        return None

    result = run_simple(main, nprocs=2, seed=0)
    assert result.completed
    return result.results[0]


def reference(sender_epoch, epoch, receiver_logging, sender_logging, mid):
    """Definition 1 on absolute epochs and Figure 4's action per class."""
    effect = {
        "early": [], "current": 0, "previous": 0, "late": [], "matches": [],
        "logging": receiver_logging,
    }
    if sender_epoch > epoch:
        effect["early"] = [mid]
    elif sender_epoch < epoch:
        effect.update(previous=1, late=[mid], matches=[(mid, True)])
    else:
        effect["current"] = 1
        if receiver_logging and not sender_logging:
            effect["logging"] = False  # Phase 4 (ii): logging ends
        elif receiver_logging:
            effect["matches"] = [(mid, False)]
    return effect


def handler_effect(epoch, receiver_logging, piggyback, mid):
    """Feed rank 0, at ``epoch`` and logging as given, one envelope from
    ``SRC`` carrying ``piggyback``, and return what its handler recorded."""

    def body(layer):
        state = layer.state
        state.epoch = layer.logs.epoch = epoch
        state.am_logging = receiver_logging
        env = Envelope(
            source=SRC, dest=0, tag=1, context=0, payload=[mid], piggyback=piggyback,
        )
        rest = layer._classify_and_deliver(env)
        if rest is not None:
            yield from rest
        return {
            "early": state.early_ids.get(SRC, []),
            "current": state.current_receive_count.get(SRC, 0),
            "previous": state.previous_receive_count.get(SRC, 0),
            "late": [rec.message_id for rec in layer.logs.late.records
                     if rec.source == SRC and rec.payload == [mid]],
            "matches": [(rec.message_id, rec.was_late)
                        for rec in layer.logs.matches.records],
            "logging": state.am_logging,
        }

    return on_rank0(body)


@settings(max_examples=60, deadline=None)
@given(
    epoch=st.integers(0, 1000),
    delta=st.sampled_from([-1, 0, 1]),
    receiver_logging=st.booleans(),
    sender_logging=st.booleans(),
    mid=st.integers(0, MAX_MESSAGE_ID),
)
def test_handler_agrees_with_absolute_epochs(
    epoch, delta, receiver_logging, sender_logging, mid
):
    sender_epoch = epoch + delta
    assume(sender_epoch >= 0)
    # A late message arrives only while the receiver logs, an early one
    # only while it does not, and no rank logs before its first checkpoint.
    assume(delta == 0 or receiver_logging == (delta < 0))
    assume(epoch >= 1 or not receiver_logging)
    effect = handler_effect(
        epoch, receiver_logging, word(sender_epoch, sender_logging, mid), mid
    )
    assert effect == reference(sender_epoch, epoch, receiver_logging, sender_logging, mid)


#: Every (sender epoch - receiver epoch, receiver logging, sender logging)
#: the protocol allows, named by the class Definition 1 gives it.
FIGURE4_CASES = [
    pytest.param(-1, True, True, id="late-sender-logging"),
    pytest.param(-1, True, False, id="late-sender-not-logging"),
    pytest.param(0, False, False, id="intra-neither-logging"),
    pytest.param(0, False, True, id="intra-sender-logging"),
    pytest.param(0, True, True, id="intra-both-logging"),
    pytest.param(0, True, False, id="intra-logging-ends"),
    pytest.param(1, False, False, id="early-sender-not-logging"),
    pytest.param(1, False, True, id="early-sender-logging"),
]


@pytest.mark.parametrize("epoch", [
    pytest.param(6, id="green-receiver"), pytest.param(7, id="red-receiver"),
])
@pytest.mark.parametrize("delta, receiver_logging, sender_logging", FIGURE4_CASES)
def test_every_class_on_both_colours(delta, receiver_logging, sender_logging, epoch):
    """Each case of Figure 4, whatever the receiver's colour, on the
    largest message ID (every ID bit set next to the flag bits)."""
    sender_epoch = epoch + delta
    effect = handler_effect(
        epoch, receiver_logging, word(sender_epoch, sender_logging, MAX_MESSAGE_ID),
        MAX_MESSAGE_ID,
    )
    assert effect == reference(
        sender_epoch, epoch, receiver_logging, sender_logging, MAX_MESSAGE_ID
    )


@pytest.mark.parametrize("epoch, am_logging, message_id, expected", [
    pytest.param(0, False, 0, 0x0000_0000, id="zero-word"),
    pytest.param(0, False, 1, 0x0000_0001, id="id-in-low-bits"),
    pytest.param(1, False, 0, 0x8000_0000, id="color-is-bit-31"),
    pytest.param(2, False, 0, 0x0000_0000, id="color-is-epoch-parity"),
    pytest.param(3, False, 5, 0x8000_0005, id="color-and-id"),
    pytest.param(2, True, 0, 0x4000_0000, id="logging-is-bit-30"),
    pytest.param(4, False, (1 << 30) - 1, 0x3FFF_FFFF, id="largest-id"),
    pytest.param(1, True, (1 << 30) - 1, 0xFFFF_FFFF, id="all-32-bits"),
])
def test_stamped_word_layout(epoch, am_logging, message_id, expected):
    """The word a send carries, against the layout written out in bits."""

    def main(ctx):
        if ctx.rank == 1:
            env = yield from ctx.comm.co_recv_envelope(source=0, tag=1)
            return env.piggyback
        layer = ProtocolPipeline(ctx.comm, C3Config())
        state = layer.state
        state.epoch = epoch
        state.am_logging = am_logging
        state.next_message_id = message_id
        yield from layer.co_send("x", 1, 1)
        return None

    result = run_simple(main, nprocs=2, seed=0)
    assert result.completed
    assert result.results[1] == expected


@pytest.mark.parametrize("op", ["co_send", "co_isend"])
def test_send_past_30_bit_message_id_is_refused(op):
    """The last 30-bit ID is stamped exactly; the next send raises."""

    def main(ctx):
        if ctx.rank == 1:
            env = yield from ctx.comm.co_recv_envelope(source=0, tag=1)
            return env.piggyback
        layer = ProtocolPipeline(ctx.comm, C3Config())
        send = getattr(layer, op)
        layer.state.next_message_id = MAX_MESSAGE_ID
        yield from send("x", 1, 1)
        with pytest.raises(PiggybackError, match="30-bit"):
            yield from send("y", 1, 1)
        return layer.stats.sends

    result = run_simple(main, nprocs=2, seed=0)
    assert result.completed
    assert result.results == [1, MAX_MESSAGE_ID]


@pytest.mark.parametrize("op", ["co_send", "co_isend"])
def test_refused_send_is_not_counted(op):
    """A refused send leaves the ID, the per-peer send count (the next
    mySendCount) and the send statistics as they were."""

    def main(ctx):
        if ctx.rank == 1:
            return None
        layer = ProtocolPipeline(ctx.comm, C3Config())
        state = layer.state
        state.next_message_id = MAX_MESSAGE_ID + 1
        with pytest.raises(PiggybackError, match="30-bit"):
            yield from getattr(layer, op)("y", 1, 1)
        return state.next_message_id, dict(state.send_count), layer.stats.sends

    result = run_simple(main, nprocs=2, seed=0)
    assert result.completed
    assert result.results[0] == (MAX_MESSAGE_ID + 1, {}, 0)
