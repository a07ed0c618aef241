"""Unit tests for the MPI matching engine."""


import pytest

from repro.simmpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    TAG_CONTROL,
    TAG_HEARTBEAT,
    collective_tag,
)
from repro.simmpi.mailbox import Mailbox, RecvDescriptor
from repro.simmpi.message import Envelope


def env(source=0, dest=1, tag=0, context=0, payload="x", piggyback=None):
    return Envelope(source=source, dest=dest, tag=tag, context=context,
                    payload=payload, piggyback=piggyback)


class TestDeliverThenPost:
    def test_unexpected_then_matched(self):
        mb = Mailbox(1)
        assert mb.deliver(env(payload="a")) is None
        desc = mb.post(RecvDescriptor(0, 0, 0))
        assert desc.matched is not None
        assert desc.matched.payload == "a"
        assert mb.pending_unexpected() == 0

    def test_unexpected_fifo_order(self):
        mb = Mailbox(1)
        mb.deliver(env(payload="first"))
        mb.deliver(env(payload="second"))
        d1 = mb.post(RecvDescriptor(0, 0, 0))
        d2 = mb.post(RecvDescriptor(0, 0, 0))
        assert d1.matched.payload == "first"
        assert d2.matched.payload == "second"


class TestPostThenDeliver:
    def test_posted_receive_completed_on_arrival(self):
        mb = Mailbox(1)
        desc = mb.post(RecvDescriptor(0, 5, 0))
        assert desc.matched is None
        completed = mb.deliver(env(tag=5))
        assert completed is desc

    def test_post_order_priority(self):
        """A message matches the earliest-posted compatible receive."""
        mb = Mailbox(1)
        d1 = mb.post(RecvDescriptor(ANY_SOURCE, ANY_TAG, 0))
        d2 = mb.post(RecvDescriptor(0, 0, 0))
        completed = mb.deliver(env())
        assert completed is d1
        assert d2.matched is None


class TestWildcards:
    def test_any_source(self):
        mb = Mailbox(1)
        mb.deliver(env(source=3))
        desc = mb.post(RecvDescriptor(ANY_SOURCE, 0, 0))
        assert desc.matched.source == 3

    def test_any_tag(self):
        mb = Mailbox(1)
        mb.deliver(env(tag=42))
        desc = mb.post(RecvDescriptor(0, ANY_TAG, 0))
        assert desc.matched.tag == 42

    def test_specific_source_excludes_others(self):
        mb = Mailbox(1)
        mb.deliver(env(source=2))
        desc = mb.post(RecvDescriptor(3, ANY_TAG, 0))
        assert desc.matched is None
        assert mb.pending_unexpected() == 1


class TestReservedTags:
    """``ANY_TAG`` is any *user* tag: library traffic on the reserved
    negative tags is invisible to application wildcards."""

    RESERVED = [TAG_CONTROL, TAG_HEARTBEAT, collective_tag(0), -10_000_000]

    @pytest.mark.parametrize("tag", RESERVED)
    def test_wildcard_post_skips_reserved_tag(self, tag):
        mb = Mailbox(0)
        mb.deliver(env(dest=0, tag=tag, payload="library"))
        mb.deliver(env(dest=0, tag=7, payload="app"))
        desc = mb.post(RecvDescriptor(ANY_SOURCE, ANY_TAG, 0))
        assert desc.matched.payload == "app"

    @pytest.mark.parametrize("tag", RESERVED)
    def test_posted_wildcard_not_completed_by_reserved_tag(self, tag):
        mb = Mailbox(0)
        desc = mb.post(RecvDescriptor(ANY_SOURCE, ANY_TAG, 0))
        assert mb.deliver(env(dest=0, tag=tag)) is None
        assert desc.matched is None
        assert mb.deliver(env(dest=0, tag=3)) is desc

    @pytest.mark.parametrize("tag", RESERVED)
    def test_wildcard_probe_skips_reserved_tag(self, tag):
        mb = Mailbox(0)
        mb.deliver(env(dest=0, tag=tag))
        assert mb.probe() is None

    def test_exact_reserved_tag_still_matches(self):
        mb = Mailbox(0)
        tag = collective_tag(2)
        mb.deliver(env(dest=0, tag=tag, payload="round"))
        assert mb.post(RecvDescriptor(0, tag, 0)).matched.payload == "round"


class TestContextIsolation:
    def test_context_mismatch_never_matches(self):
        mb = Mailbox(1)
        mb.deliver(env(context=7))
        desc = mb.post(RecvDescriptor(0, 0, context=8))
        assert desc.matched is None


class TestPredicates:
    def test_predicate_filters(self):
        """The recovery engine waits for a specific messageID this way."""
        mb = Mailbox(1)
        mb.deliver(env(payload="no", piggyback=1))
        mb.deliver(env(payload="yes", piggyback=2))
        desc = mb.post(RecvDescriptor(0, 0, 0, predicate=lambda e: e.piggyback == 2))
        assert desc.matched.payload == "yes"
        assert mb.pending_unexpected() == 1

    def test_predicate_on_delivery(self):
        mb = Mailbox(1)
        desc = mb.post(RecvDescriptor(0, 0, 0, predicate=lambda e: e.piggyback == 9))
        assert mb.deliver(env(piggyback=3)) is None
        assert mb.deliver(env(piggyback=9)) is desc


class TestControlQueue:
    def test_control_messages_queue_apart_in_delivery_order(self):
        mb = Mailbox(1)
        assert mb.pop_control() is None
        assert mb.deliver(env(tag=TAG_CONTROL, payload="first")) is None
        mb.deliver(env(tag=4, payload="app"))
        mb.deliver(env(source=2, tag=TAG_CONTROL, payload="second"))
        assert mb.pending_unexpected() == 1  # application matching never sees them
        assert [e.payload for e in mb.control] == ["first", "second"]
        assert mb.pop_control().payload == "first"
        assert mb.pop_control().source == 2
        assert mb.pop_control() is None
        assert mb.matched_count == 2 and mb.delivered_count == 3

    def test_posted_receive_never_takes_a_control_message(self):
        mb = Mailbox(1)
        desc = mb.post(RecvDescriptor(ANY_SOURCE, TAG_CONTROL, 0))
        assert mb.deliver(env(tag=TAG_CONTROL)) is None
        assert desc.matched is None and len(mb.control) == 1


class TestProbe:
    def test_probe_does_not_consume(self):
        mb = Mailbox(1)
        mb.deliver(env())
        assert mb.probe() is not None
        assert mb.pending_unexpected() == 1


class TestCancel:
    def test_cancel_posted(self):
        mb = Mailbox(1)
        desc = mb.post(RecvDescriptor(0, 0, 0))
        assert mb.cancel(desc) is True
        assert mb.deliver(env()) is None  # cancelled receive cannot match

    def test_cancel_matched_returns_false(self):
        mb = Mailbox(1)
        mb.deliver(env())
        desc = mb.post(RecvDescriptor(0, 0, 0))
        assert mb.cancel(desc) is False


class TestClear:
    def test_clear_drops_everything(self):
        mb = Mailbox(1)
        mb.deliver(env())
        mb.deliver(env(tag=TAG_CONTROL))
        desc = mb.post(RecvDescriptor(9, 9, 0))
        mb.clear()
        assert mb.pending_unexpected() == 0
        assert mb.pop_control() is None
        assert desc.cancelled
