"""Unit tests for the simulated interconnect.

Messages are posted on a 4-rank simulator's network whose ranks never
run, and delivered by the simulator's own delivery loop into the ranks'
mailboxes (:func:`pop_due`).
"""

import numpy as np
import pytest

from repro.errors import SimMPIError
from repro.simmpi import SimConfig, Simulator
from repro.simmpi.constants import TAG_COLLECTIVE_BASE, TAG_CONTROL
from repro.simmpi.datatypes import HEADER_BYTES, sizeof
from repro.simmpi.message import Envelope


def make_sim(ordering="per_tag_fifo", jitter=20e-6, seed=0):
    config = SimConfig(nprocs=4, seed=seed, ordering=ordering, jitter=jitter, base_delay=5e-6)
    return Simulator(config, lambda ctx: None)


def pop_due(sim, now):
    """Deliver every message due at ``now``; returns them in delivery order
    (the network heap's order: delivery time, then post sequence)."""
    sim.clock.advance_to(now)
    sim._deliver_due_messages()
    delivered = []
    for proc in sim.procs:
        delivered += proc.mailbox.unexpected
        proc.mailbox.unexpected.clear()
    return sorted(delivered, key=lambda e: (e.deliver_time, e.seq))


def env(source=0, dest=1, tag=0, payload=b"x"):
    return Envelope(source=source, dest=dest, tag=tag, context=0, payload=payload)


class TestDelivery:
    def test_message_delivered_after_delay(self):
        sim = make_sim()
        sim.network.post(env(), now=0.0)
        assert pop_due(sim, 0.0) == []
        t = sim.network.next_delivery_time()
        assert t > 0.0
        delivered = pop_due(sim, t)
        assert len(delivered) == 1

    def test_reliability_no_loss(self):
        """Every message between live ranks is delivered exactly once."""
        sim = make_sim(ordering="random")
        for i in range(200):
            sim.network.post(env(source=i % 3, dest=3, payload=i), now=0.0)
        delivered = pop_due(sim, 1.0)
        assert sorted(e.payload for e in delivered) == list(range(200))
        assert sim.network.stats.delivered == 200

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = make_sim(ordering="random", seed=seed)
            for i in range(50):
                sim.network.post(env(payload=i), now=0.0)
            return [e.payload for e in pop_due(sim, 1.0)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # overwhelmingly likely


class TestOrdering:
    def _delivery_order(self, ordering, tags):
        sim = make_sim(ordering=ordering, seed=3)
        for i, tag in enumerate(tags):
            sim.network.post(env(tag=tag, payload=i), now=0.0)
        return [e.payload for e in pop_due(sim, 10.0)]

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
            sim = make_sim(ordering="per_tag_fifo", seed=seed)
            for i in range(20):
                sim.network.post(env(tag=i % 2, payload=i), now=0.0)
            order = [e.payload for e in pop_due(sim, 10.0)]
            if order != sorted(order):
                seen_reorder = True
                break
        assert seen_reorder

    def test_random_can_reorder_same_tag(self):
        seen_reorder = False
        for seed in range(20):
            sim = make_sim(ordering="random", seed=seed)
            for i in range(20):
                sim.network.post(env(payload=i), now=0.0)
            order = [e.payload for e in pop_due(sim, 10.0)]
            if order != sorted(order):
                seen_reorder = True
                break
        assert seen_reorder

    def test_unknown_ordering_rejected(self):
        with pytest.raises(SimMPIError):
            make_sim(ordering="bogus")

    @pytest.mark.parametrize("ordering", ["per_tag_fifo", "fifo"])
    def test_floor_kept_except_for_collective_rounds(self, ordering):
        """Under ``per_tag_fifo`` a collective round's key is posted once
        per attempt, so no floor is kept for it; user tags, control words
        and every ``fifo`` pair keep theirs."""
        sim = make_sim(ordering=ordering)
        for tag in (0, TAG_CONTROL, TAG_COLLECTIVE_BASE, TAG_COLLECTIVE_BASE - 65):
            sim.network.post(env(source=2, tag=tag), now=0.0)
        expected = (
            [(2, 1)] if ordering == "fifo"
            else [(2, 1, 0, 0), (2, 1, TAG_CONTROL, 0)]
        )
        assert list(sim.network._last_delivery) == expected


class TestStoppingFaults:
    def test_messages_to_dead_rank_dropped(self):
        sim = make_sim()
        sim.network.post(env(dest=2), now=0.0)
        sim.network.mark_dead(2)
        assert pop_due(sim, 1.0) == []
        assert sim.network.stats.dropped_dead_dest == 1

    def test_messages_from_dead_rank_not_accepted(self):
        sim = make_sim()
        sim.network.mark_dead(0)
        sim.network.post(env(source=0), now=0.0)
        assert sim.network.in_flight() == 0
        assert sim.network.stats.dropped_dead_source == 1

    def test_in_flight_message_from_a_rank_that_dies_is_dropped(self):
        sim = make_sim()
        sim.network.post(env(source=0), now=0.0)
        sim.network.mark_dead(0)
        assert pop_due(sim, 1.0) == []
        assert sim.network.stats.dropped_dead_source == 1
        assert sim.network.stats.delivered == 0

    def test_live_traffic_unaffected(self):
        sim = make_sim()
        sim.network.mark_dead(3)
        sim.network.post(env(source=0, dest=1), now=0.0)
        assert len(pop_due(sim, 1.0)) == 1


class TestStats:
    def test_byte_accounting(self):
        sim = make_sim()
        e = env(payload=b"\x00" * 100)
        sim.network.post(e, now=0.0)
        pop_due(sim, 1.0)
        assert sim.network.stats.bytes_posted == e.nbytes
        assert sim.network.stats.bytes_delivered == e.nbytes

    def test_piggyback_bytes_counted(self):
        plain = Envelope(source=0, dest=1, tag=0, context=0, payload=b"\x00" * 10)
        packed = Envelope(source=0, dest=1, tag=0, context=0, payload=b"\x00" * 10,
                          piggyback=123)
        assert packed.nbytes == plain.nbytes + 4

    @pytest.mark.parametrize("payload", [
        np.zeros(5), b"abc", 3, 2.5, True, None, 1j, "text", [1, b"ab"],
        {"a": 1}, np.float64(1.0), bytearray(b"xy"), (np.ones(2),),
    ])
    def test_envelope_sizes_its_payload_as_sizeof(self, payload):
        assert env(payload=payload).nbytes == sizeof(payload) + HEADER_BYTES

    def test_drain(self):
        sim = make_sim()
        sim.network.post(env(), now=0.0)
        sim.network.drain()
        assert sim.network.in_flight() == 0
