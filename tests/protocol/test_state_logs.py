"""ProtocolState bookkeeping (Figure 4 variables) and the epoch logs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RecoveryError
from repro.protocol.logs import (
    CollectiveRecord,
    EpochLogs,
    LateMessageLog,
    LateRecord,
    MatchLog,
    MatchRecord,
    NondetLog,
)
from repro.protocol.state import ProtocolState
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG


class TestProtocolState:
    def make(self, rank=0, nprocs=4):
        return ProtocolState(rank=rank, nprocs=nprocs)

    def test_initial_values_match_figure4(self):
        st_ = self.make()
        assert st_.epoch == 0
        assert st_.am_logging is False
        assert st_.next_message_id == 0
        assert st_.checkpoint_requested is False
        assert all(v == 0 for v in st_.send_count.values())
        assert all(v is None for v in st_.total_sent.values())

    def test_topology_excludes_self(self):
        st_ = self.make(rank=2)
        assert 2 not in st_.senders
        assert 2 not in st_.receivers
        assert len(st_.senders) == 3

    def test_note_send_sequences_ids(self):
        st_ = self.make()
        assert [st_.note_send(1) for _ in range(3)] == [0, 1, 2]
        assert st_.send_count[1] == 3

    def test_note_send_ids_shared_across_destinations(self):
        """nextMessageID is per process, not per destination (Figure 4)."""
        st_ = self.make()
        assert st_.note_send(1) == 0
        assert st_.note_send(2) == 1
        assert st_.send_count == {1: 1, 2: 1, 3: 0}

    def test_all_late_received_requires_totals(self):
        st_ = self.make()
        assert not st_.all_late_received()  # totals still unknown (⊥)
        for q in st_.senders:
            st_.total_sent[q] = 0
        assert st_.all_late_received()

    def test_all_late_received_counts(self):
        st_ = self.make()
        for q in st_.senders:
            st_.total_sent[q] = 2
            st_.previous_receive_count[q] = 2
        assert st_.all_late_received()
        st_.previous_receive_count[st_.senders[0]] = 1
        assert not st_.all_late_received()

    def test_epoch_transition_shifts_counters(self):
        st_ = self.make()
        st_.note_send(1)
        st_.note_send(1)
        st_.current_receive_count[2] = 5
        st_.early_ids[3] = [7, 8]
        counts = st_.epoch_transition()
        assert counts == {1: 2, 2: 0, 3: 0}
        assert st_.epoch == 1
        assert st_.previous_receive_count[2] == 5
        # Early messages belong to the new epoch (Figure 4):
        assert st_.current_receive_count[3] == 2
        assert st_.early_ids[3] == []
        assert st_.next_message_id == 0
        assert st_.send_count == {1: 0, 2: 0, 3: 0}

    def test_snapshot_normalised_for_restore(self):
        st_ = self.make()
        st_.epoch_transition()
        st_.am_logging = True
        st_.total_sent[1] = 3
        snap = st_.snapshot_for_checkpoint()
        assert snap.am_logging is False
        assert snap.total_sent[1] is None
        assert snap.epoch == st_.epoch
        # Deep copy: mutating the snapshot leaves the live state alone.
        snap.send_count[1] = 99
        assert st_.send_count[1] == 0

    def test_snapshot_equals_deepcopy_and_shares_nothing_mutable(self):
        """The snapshot is built field by field (deepcopy was the top cost
        of a 64-rank wave); the reference stays here."""
        import copy
        import pickle

        st_ = ProtocolState(rank=1, nprocs=5, senders=(0, 2, 3), receivers=(0, 4))
        st_.note_send(4)
        st_.epoch_transition()
        st_.am_logging = st_.checkpoint_requested = st_.ready_sent = True
        st_.note_send(0)
        st_.early_ids[2] = [4, 9]
        st_.current_receive_count[3] = 6
        st_.previous_receive_count[0] = 2
        st_.total_sent[0] = 2
        reference = copy.deepcopy(st_)
        reference.am_logging = reference.checkpoint_requested = False
        reference.ready_sent = False
        reference.next_message_id = 0
        for q in reference.senders:
            reference.total_sent[q] = None
            reference.previous_receive_count[q] = 0
        snap = st_.snapshot_for_checkpoint()
        assert pickle.dumps(snap, protocol=5) == pickle.dumps(reference, protocol=5)
        for name in ("send_count", "early_ids", "current_receive_count",
                     "previous_receive_count", "total_sent"):
            assert getattr(snap, name) is not getattr(st_, name)
        for q, ids in st_.early_ids.items():
            assert snap.early_ids[q] is not ids
        # The live state kept everything the snapshot normalised away.
        assert st_.am_logging and st_.next_message_id == 1
        assert st_.total_sent[0] == 2 and st_.previous_receive_count[0] == 2


class TestCursorLogs:
    def test_nondet_replay_order(self):
        log = NondetLog()
        for v in (1, "two", 3.0):
            log.append(v)
        assert [log.next() for _ in range(3)] == [1, "two", 3.0]
        assert log.exhausted

    def test_next_past_end_raises(self):
        with pytest.raises(RecoveryError):
            NondetLog().next()

    def test_rewind(self):
        log = MatchLog()
        log.append(MatchRecord(0, 0, 0, False))
        log.next()
        log.rewind()
        assert not log.exhausted


class TestLateMessageLog:
    def make_log(self):
        log = LateMessageLog()
        log.append(LateRecord(source=1, tag=5, message_id=0, payload="a"))
        log.append(LateRecord(source=2, tag=5, message_id=0, payload="b"))
        log.append(LateRecord(source=1, tag=6, message_id=1, payload="c"))
        return log

    def test_take_by_id(self):
        log = self.make_log()
        rec = log.take_by_id(1, 1)
        assert rec.payload == "c"
        assert log.take_by_id(1, 1) is None  # consumed

    def test_take_matching_specific(self):
        log = self.make_log()
        rec = log.take_matching(1, 5, ANY_SOURCE, ANY_TAG)
        assert rec.payload == "a"

    def test_take_matching_wildcards(self):
        log = self.make_log()
        rec = log.take_matching(ANY_SOURCE, ANY_TAG, ANY_SOURCE, ANY_TAG)
        assert rec.payload == "a"  # oldest first

    def test_remaining_and_exhausted(self):
        log = self.make_log()
        assert log.remaining() == 3
        log.take_by_id(1, 0)
        log.take_by_id(2, 0)
        log.take_by_id(1, 1)
        assert log.exhausted

    def test_rewind(self):
        log = self.make_log()
        log.take_by_id(1, 0)
        log.rewind()
        assert log.remaining() == 3


class TestEpochLogs:
    def test_all_exhausted(self):
        logs = EpochLogs(epoch=3)
        assert logs.all_exhausted()
        logs.nondet.append(1)
        assert not logs.all_exhausted()
        logs.nondet.next()
        assert logs.all_exhausted()

    def test_summary(self):
        logs = EpochLogs(epoch=1)
        logs.late.append(LateRecord(0, 0, 0, None))
        logs.collectives.append(CollectiveRecord("allreduce", 1.0))
        assert logs.summary() == {
            "late": 1, "nondet": 0, "matches": 0, "collectives": 1,
        }


@given(sends=st.lists(st.integers(1, 3), max_size=40))
def test_message_id_uniqueness_property(sends):
    """Within one epoch every (sender, messageID) pair is unique — the basis
    for early-ID suppression and replay matching."""
    st_ = ProtocolState(rank=0, nprocs=4)
    ids = [st_.note_send(dest) for dest in sends]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)
