"""TraceRecorder: ring semantics, timeline offsets, tails, pickling."""

import pickle

import pytest

from repro.trace import DEFAULT_RING_CAPACITY, TraceEvent, TraceRecorder
from repro.trace.recorder import flight_dump


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


def test_emit_stamps_bound_clock():
    rec = TraceRecorder()
    clock = FakeClock(1.5)
    rec.bind_clock(clock)
    rec.emit("sched", "grant", rank=2)
    clock.now = 2.25
    rec.emit("sched", "block", rank=2, why="recv")
    a, b = rec.events
    assert (a.t, b.t) == (1.5, 2.25)
    assert b.payload == {"why": "recv"}


def test_explicit_t_wins_over_clock():
    rec = TraceRecorder()
    rec.bind_clock(FakeClock(9.0))
    rec.emit("net", "deliver", t=0.5, rank=0)
    assert rec.events[0].t == 0.5


def test_cross_attempt_offset_makes_timeline_monotone():
    rec = TraceRecorder()
    rec.begin_attempt(0)
    rec.bind_clock(FakeClock(0.0))
    rec.emit("fail", "kill", t=0.7, rank=1)
    rec.end_attempt(1.0)  # attempt 0 ended at virtual 1.0
    rec.begin_attempt(1)
    rec.bind_clock(FakeClock(0.0))
    rec.emit("proto", "restore", t=0.2, rank=1)
    kill, restore = rec.events
    assert kill.t == 0.7 and kill.attempt == 0
    assert restore.t == pytest.approx(1.2) and restore.attempt == 1
    assert restore.t > kill.t


def test_ring_bound_and_dropped():
    rec = TraceRecorder(capacity=8)
    for i in range(20):
        rec.emit("sched", "grant", t=float(i))
    assert len(rec) == 8
    assert rec.dropped == 12
    assert rec.events[0].t == 12.0  # oldest survivors
    rec.clear()
    assert len(rec) == 0 and rec.dropped == 0


def test_unbounded_capacity_keeps_everything():
    rec = TraceRecorder(capacity=None)
    for i in range(DEFAULT_RING_CAPACITY + 10 if DEFAULT_RING_CAPACITY < 1000 else 1000):
        rec.emit("sched", "grant", t=float(i))
    assert rec.dropped == 0


def test_tail_filters_by_rank_excluding_sim_events():
    rec = TraceRecorder()
    rec.emit("recovery", "attempt_begin", t=0.0)  # rank None
    for i in range(5):
        rec.emit("sched", "grant", t=float(i + 1), rank=i % 2)
    tail0 = rec.tail(rank=0, n=10)
    assert all(ev.rank == 0 for ev in tail0)
    assert len(tail0) == 3
    # unfiltered tail keeps sim-level events
    assert rec.tail(n=100)[0].rank is None


def test_ranks_and_flight_dump_shape():
    rec = TraceRecorder()
    rec.emit("recovery", "attempt_begin", t=0.0)
    rec.emit("sched", "grant", t=0.1, rank=1)
    rec.emit("sched", "grant", t=0.2, rank=0)
    assert rec.ranks() == [0, 1]
    dump = rec.flight_dump(per_rank=5)
    assert sorted(dump) == ["0", "1", "sim"]
    assert dump["1"][0]["name"] == "grant"
    assert dump["sim"][0]["name"] == "attempt_begin"


def test_module_flight_dump_tolerates_missing_recorder():
    assert flight_dump(None) is None
    assert flight_dump(TraceRecorder()) is None  # empty recorder


def test_pickle_roundtrip_drops_clock():
    rec = TraceRecorder(capacity=4)
    rec.bind_clock(FakeClock(3.0))
    for i in range(6):
        rec.emit("ckpt", "local_checkpoint", t=float(i), rank=0, epoch=i)
    clone = pickle.loads(pickle.dumps(rec))
    assert len(clone) == 4
    assert clone.dropped == 2
    assert [ev.epoch for ev in clone] == [2, 3, 4, 5]
    # rebound clock is gone; emit with explicit t still works
    clone.emit("ckpt", "local_checkpoint", t=9.0, rank=0)
    assert clone.events[-1].t == 9.0


def test_event_category_validated():
    with pytest.raises(ValueError):
        TraceEvent(t=0.0, category="bogus", name="x")


def test_event_dict_roundtrip_and_short():
    ev = TraceEvent(t=1.25, category="proto", name="send", rank=3, epoch=2,
                    attempt=1, payload={"dest": 0, "mid": 7})
    clone = TraceEvent.from_dict(ev.to_dict())
    assert clone == ev
    text = ev.short()
    assert "proto.send" in text and "dest=0" in text
