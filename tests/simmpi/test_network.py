"""Unit tests for the simulated interconnect."""

import pytest

from repro.errors import SimMPIError
from repro.simmpi.message import Envelope
from repro.simmpi.network import Network
from repro.util.rng import RngStream


def make_net(ordering="per_tag_fifo", jitter=20e-6, seed=0):
    return Network(4, RngStream(seed, "net"), base_delay=5e-6,
                   jitter=jitter, ordering=ordering)


def env(source=0, dest=1, tag=0, payload=b"x"):
    return Envelope(source=source, dest=dest, tag=tag, context=0, payload=payload)


class TestDelivery:
    def test_message_delivered_after_delay(self):
        net = make_net()
        net.post(env(), now=0.0)
        assert net.pop_due(0.0) == []
        t = net.next_delivery_time()
        assert t > 0.0
        delivered = net.pop_due(t)
        assert len(delivered) == 1

    def test_reliability_no_loss(self):
        """Every message between live ranks is delivered exactly once."""
        net = make_net(ordering="random")
        for i in range(200):
            net.post(env(source=i % 3, dest=3, payload=i), now=0.0)
        delivered = net.pop_due(1.0)
        assert sorted(e.payload for e in delivered) == list(range(200))
        assert net.stats.delivered == 200

    def test_deterministic_given_seed(self):
        def run(seed):
            net = make_net(ordering="random", seed=seed)
            for i in range(50):
                net.post(env(payload=i), now=0.0)
            return [e.payload for e in net.pop_due(1.0)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # overwhelmingly likely


class TestOrdering:
    def _delivery_order(self, ordering, tags):
        net = make_net(ordering=ordering, seed=3)
        for i, tag in enumerate(tags):
            net.post(env(tag=tag, payload=i), now=0.0)
        return [e.payload for e in net.pop_due(10.0)]

    def test_fifo_preserves_pair_order(self):
        order = self._delivery_order("fifo", [0, 1, 0, 1, 0, 1, 0, 1])
        assert order == list(range(8))

    def test_per_tag_fifo_preserves_same_tag_order(self):
        order = self._delivery_order("per_tag_fifo", [0] * 20)
        assert order == list(range(20))

    def test_per_tag_fifo_can_reorder_across_tags(self):
        """MPI's non-overtaking guarantee is per matching descriptor; the
        paper's protocol must survive cross-tag reordering (Section 3.3)."""
        seen_reorder = False
        for seed in range(20):
            net = make_net(ordering="per_tag_fifo", seed=seed)
            for i in range(20):
                net.post(env(tag=i % 2, payload=i), now=0.0)
            order = [e.payload for e in net.pop_due(10.0)]
            if order != sorted(order):
                seen_reorder = True
                break
        assert seen_reorder

    def test_random_can_reorder_same_tag(self):
        seen_reorder = False
        for seed in range(20):
            net = make_net(ordering="random", seed=seed)
            for i in range(20):
                net.post(env(payload=i), now=0.0)
            order = [e.payload for e in net.pop_due(10.0)]
            if order != sorted(order):
                seen_reorder = True
                break
        assert seen_reorder

    def test_unknown_ordering_rejected(self):
        with pytest.raises(SimMPIError):
            make_net(ordering="bogus")


class TestStoppingFaults:
    def test_messages_to_dead_rank_dropped(self):
        net = make_net()
        net.post(env(dest=2), now=0.0)
        net.mark_dead(2)
        assert net.pop_due(1.0) == []
        assert net.stats.dropped_dead_dest == 1

    def test_messages_from_dead_rank_not_accepted(self):
        net = make_net()
        net.mark_dead(0)
        net.post(env(source=0), now=0.0)
        assert net.in_flight() == 0
        assert net.stats.dropped_dead_source == 1

    def test_live_traffic_unaffected(self):
        net = make_net()
        net.mark_dead(3)
        net.post(env(source=0, dest=1), now=0.0)
        assert len(net.pop_due(1.0)) == 1


class TestStats:
    def test_byte_accounting(self):
        net = make_net()
        e = env(payload=b"\x00" * 100)
        net.post(e, now=0.0)
        net.pop_due(1.0)
        assert net.stats.bytes_posted == e.nbytes
        assert net.stats.bytes_delivered == e.nbytes

    def test_piggyback_bytes_counted(self):
        plain = Envelope(source=0, dest=1, tag=0, context=0, payload=b"\x00" * 10)
        packed = Envelope(source=0, dest=1, tag=0, context=0, payload=b"\x00" * 10,
                          piggyback=123)
        full = Envelope(source=0, dest=1, tag=0, context=0, payload=b"\x00" * 10,
                        piggyback=(1, True, 5))
        assert packed.nbytes == plain.nbytes + 4
        assert full.nbytes == plain.nbytes + 12

    def test_drain(self):
        net = make_net()
        net.post(env(), now=0.0)
        net.drain()
        assert net.in_flight() == 0
