"""ProtocolState bookkeeping (Figure 4 variables) and the epoch logs."""

import copy
import pickle

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


PER_PEER = (
    "send_count", "early_ids", "current_receive_count",
    "previous_receive_count", "total_sent",
)


class DenseState:
    """Reference: Figure 4's variables with an entry for *every* peer, the
    form ``ProtocolState`` had before its dicts went sparse.  The sparse
    state must agree with it under ``.get(q, initial value)``."""

    def __init__(self, rank, nprocs):
        self.rank, self.nprocs = rank, nprocs
        self.others = [q for q in range(nprocs) if q != rank]
        self.epoch = self.next_message_id = 0
        self.send_count = dict.fromkeys(self.others, 0)
        self.early_ids = {q: [] for q in self.others}
        self.current_receive_count = dict.fromkeys(self.others, 0)
        self.previous_receive_count = dict.fromkeys(self.others, 0)
        self.total_sent = dict.fromkeys(self.others)  # None is the paper's ⊥

    def note_send(self, dest):
        self.next_message_id += 1
        self.send_count[dest] += 1
        return self.next_message_id - 1

    def all_late_received(self):
        return all(
            self.total_sent[q] is not None
            and self.previous_receive_count[q] == self.total_sent[q]
            for q in self.others
        )

    def reset_total_sent(self):
        self.total_sent = dict.fromkeys(self.others)

    def epoch_transition(self):
        old_send_counts = dict(self.send_count)
        self.epoch += 1
        self.next_message_id = 0
        for q in self.others:
            self.previous_receive_count[q] = self.current_receive_count[q]
            self.current_receive_count[q] = len(self.early_ids[q])
            self.early_ids[q] = []
            self.send_count[q] = 0
        return old_send_counts

    def snapshot_for_checkpoint(self):
        snap = copy.deepcopy(self)
        snap.next_message_id = 0
        snap.reset_total_sent()
        snap.previous_receive_count = dict.fromkeys(self.others, 0)
        return snap


def assert_agree(sparse, dense):
    """Every per-peer read of the sparse state equals the dense one."""
    assert (sparse.epoch, sparse.next_message_id) == (dense.epoch, dense.next_message_id)
    for q in dense.others:
        assert sparse.send_count.get(q, 0) == dense.send_count[q]
        assert sparse.early_ids.get(q, []) == dense.early_ids[q]
        assert sparse.current_receive_count.get(q, 0) == dense.current_receive_count[q]
        assert sparse.previous_receive_count.get(q, 0) == dense.previous_receive_count[q]
        assert sparse.total_sent.get(q) == dense.total_sent[q]
    for name in PER_PEER:
        assert set(getattr(sparse, name)) <= set(dense.others)
    assert sparse.all_late_received() == dense.all_late_received()


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
        assert_agree(st_, DenseState(0, 4))

    def test_topology_excludes_self(self):
        """Every other rank is a peer; the topology is derived, not stored."""
        st_ = self.make(rank=2)
        assert st_.peers() == [0, 1, 3]
        assert not hasattr(st_, "senders") and not hasattr(st_, "receivers")
        assert self.make(rank=0, nprocs=1).peers() == []

    def test_note_send_sequences_ids(self):
        st_ = self.make()
        assert [st_.note_send(1) for _ in range(3)] == [0, 1, 2]
        assert st_.send_count[1] == 3

    def test_note_send_ids_shared_across_destinations(self):
        """nextMessageID is per process, not per destination (Figure 4)."""
        st_ = self.make()
        assert st_.note_send(1) == 0
        assert st_.note_send(2) == 1
        assert st_.send_count == {1: 1, 2: 1}  # rank 3 was sent nothing: no entry

    def test_all_late_received_requires_totals(self):
        st_ = self.make()
        assert not st_.all_late_received()  # totals still unknown (⊥)
        for q in st_.peers()[:-1]:
            st_.total_sent[q] = 0
        assert not st_.all_late_received()  # one peer's count still missing
        st_.total_sent[st_.peers()[-1]] = 0
        assert st_.all_late_received()
        assert self.make(nprocs=1).all_late_received()  # no senders at all

    def test_all_late_received_counts(self):
        st_ = self.make()
        for q in st_.peers():
            st_.total_sent[q] = 2
            st_.previous_receive_count[q] = 2
        assert st_.all_late_received()
        st_.previous_receive_count[st_.peers()[0]] = 1
        assert not st_.all_late_received()

    def test_all_late_received_counts_peers_not_keys(self):
        """The ``len`` shortcut never replaces the scan: enough keys, but an
        explicit ⊥ or a key that is no peer, still means a count is missing."""
        st_ = self.make()
        st_.total_sent = {1: 0, 2: 0, 3: None}
        assert not st_.all_late_received()
        st_.total_sent = {0: 0, 1: 0, 2: 0}  # own rank is not a sender
        assert not st_.all_late_received()

    def test_epoch_transition_shifts_counters(self):
        st_ = self.make()
        st_.note_send(1)
        st_.note_send(1)
        st_.current_receive_count[2] = 5
        st_.early_ids[3] = [7, 8]
        counts = st_.epoch_transition()
        assert counts == {1: 2}  # absent receivers were sent 0
        assert st_.epoch == 1
        assert st_.previous_receive_count == {2: 5}
        # Early messages belong to the new epoch (Figure 4):
        assert st_.current_receive_count == {3: 2}
        assert st_.early_ids == {}
        assert st_.next_message_id == 0
        assert st_.send_count == {}
        # The counters were rebound, not aliased: a receive in the new epoch
        # does not leak into the previous epoch's count.
        st_.current_receive_count[2] = 1
        assert st_.previous_receive_count == {2: 5}

    def test_early_send_count_survives_the_transition(self):
        """A ``mySendCount`` for ``epoch + 1`` can arrive *before* the local
        checkpoint (its sender checkpointed first); it must still be there
        afterwards and is cleared only by ``reset_total_sent``."""
        st_, dense = self.make(), DenseState(0, 4)
        for s in (st_, dense):
            s.total_sent[2] = 4
            s.current_receive_count[2] = 4
            s.epoch_transition()
        assert st_.total_sent == {2: 4}
        assert_agree(st_, dense)
        for s in (st_, dense):
            s.total_sent[1] = s.total_sent[3] = 0
        assert st_.all_late_received()
        assert_agree(st_, dense)
        for s in (st_, dense):
            s.reset_total_sent()
        assert st_.total_sent == {} and not st_.all_late_received()
        assert_agree(st_, dense)

    def test_snapshot_normalised_for_restore(self):
        st_ = self.make()
        st_.note_send(1)
        st_.epoch_transition()
        st_.am_logging = True
        st_.total_sent[1] = 3
        st_.previous_receive_count[2] = 1
        st_.note_send(1)
        snap = st_.snapshot_for_checkpoint()
        assert snap.am_logging is False
        assert snap.total_sent.get(1) is None and snap.total_sent == {}
        assert snap.previous_receive_count == {}
        assert snap.epoch == st_.epoch
        # Deep copy: mutating the snapshot leaves the live state alone.
        snap.send_count[1] = 99
        assert st_.send_count[1] == 1
        assert st_.total_sent == {1: 3} and st_.previous_receive_count == {2: 1}

    def test_snapshot_equals_deepcopy_and_shares_nothing_mutable(self):
        """The snapshot is built field by field (deepcopy was the top cost
        of a 64-rank wave) and copies only the entries that exist; the
        reference stays here: a dense state driven by the same operations,
        which the sparse snapshot must match peer by peer."""
        st_, dense = ProtocolState(rank=1, nprocs=5), DenseState(1, 5)
        for s in (st_, dense):
            s.note_send(4)
            s.epoch_transition()
            s.note_send(0)
            s.early_ids.setdefault(2, []).extend([4, 9])
            s.current_receive_count[3] = 6
            s.previous_receive_count[0] = 2
            s.total_sent[0] = 2
        st_.am_logging = st_.checkpoint_requested = st_.ready_sent = True
        snap = st_.snapshot_for_checkpoint()
        assert_agree(snap, dense.snapshot_for_checkpoint())
        assert not (snap.am_logging or snap.checkpoint_requested or snap.ready_sent)
        assert pickle.loads(pickle.dumps(snap, protocol=5)) == snap
        for name in PER_PEER:
            assert getattr(snap, name) is not getattr(st_, name)
        for q, ids in st_.early_ids.items():
            assert snap.early_ids[q] is not ids
        # The live state kept everything the snapshot normalised away.
        assert st_.am_logging and st_.next_message_id == 1
        assert st_.total_sent[0] == 2 and st_.previous_receive_count[0] == 2
        assert_agree(st_, dense)

    @pytest.mark.parametrize("nprocs", [4, 64, 1024])
    def test_fresh_state_size_is_independent_of_nprocs(self, nprocs):
        """Count-based scale guard: a fresh state holds no per-peer entry and
        pickles to the same few hundred bytes at any rank count (the dense
        form was 1 641 B at 64 ranks and 26 423 B at 1024)."""
        st_ = ProtocolState(rank=1, nprocs=nprocs)
        assert sum(len(getattr(st_, name)) for name in PER_PEER) == 0
        size = len(pickle.dumps(st_, protocol=5))
        assert size < 350
        assert abs(size - len(pickle.dumps(ProtocolState(rank=1, nprocs=4), protocol=5))) <= 8

    def test_committed_checkpoints_hold_only_live_neighbours(self):
        """16-rank no-RNG laplace V3 (the golden ``laplace16`` shape): a rank
        of the row decomposition talks to at most two neighbours, and that is
        all any rank-checkpoint's protocol state may mention."""
        from repro.api.registry import get_app
        from repro.apps.laplace import LaplaceParams
        from repro.runtime import RunConfig, Variant, run_with_recovery
        from repro.statesave import Storage

        written = []

        class RecordingStorage(Storage):
            def write_state(self, rank, epoch, data):
                written.append(data.protocol)
                return super().write_state(rank, epoch, data)

        config = RunConfig(
            nprocs=16, seed=3, variant=Variant.FULL, checkpoint_interval=0.002,
            detector_timeout=0.05, sched_policy="round_robin", jitter=0.0,
        )
        out = run_with_recovery(
            get_app("laplace").build(LaplaceParams(n=32, iterations=60)),
            config, storage=RecordingStorage.from_config(config),
        )
        assert out.checkpoints_committed >= 2
        assert len(written) >= 16 * out.checkpoints_committed
        assert max(len(getattr(p, name)) for p in written for name in PER_PEER) <= 2
        assert any(p.current_receive_count for p in written)  # and not vacuously


#: One step of the sparse-vs-dense walk: (operation, peer index, small int).
STEPS = st.lists(
    st.tuples(
        st.sampled_from([
            "send", "receive", "late", "early", "count",
            "transition", "reset", "snapshot", "restore",
        ]),
        st.integers(0, 6),
        st.integers(0, 3),
    ),
    max_size=60,
)


@given(nprocs=st.integers(2, 8), rank=st.integers(0, 7), steps=STEPS)
def test_sparse_state_agrees_with_dense_reference(nprocs, rank, steps):
    """Random protocol bookkeeping over 2-8 ranks: after every step the
    sparse state and the dense reference agree on every per-peer read and on
    ``receivedAll?``; snapshots survive a pickle round trip, and both sides
    can carry on from one (a restore)."""
    rank %= nprocs
    sparse, dense = ProtocolState(rank=rank, nprocs=nprocs), DenseState(rank, nprocs)
    for op, peer, n in steps:
        q = dense.others[peer % len(dense.others)]
        if op == "send":
            assert sparse.note_send(q) == dense.note_send(q)
        elif op == "receive":  # what the message-log stage does per delivery
            for s in (sparse, dense):
                s.current_receive_count[q] = s.current_receive_count.get(q, 0) + 1
        elif op == "late":
            for s in (sparse, dense):
                s.previous_receive_count[q] = s.previous_receive_count.get(q, 0) + 1
        elif op == "early":
            for s in (sparse, dense):
                s.early_ids.setdefault(q, []).append(n)
        elif op == "count":  # a mySendCount token arrives
            sparse.total_sent[q] = dense.total_sent[q] = n
        elif op == "transition":
            sent, dense_sent = sparse.epoch_transition(), dense.epoch_transition()
            assert {p: sent.get(p, 0) for p in dense.others} == dense_sent
        elif op == "reset":
            sparse.reset_total_sent()
            dense.reset_total_sent()
        else:
            snap = pickle.loads(pickle.dumps(sparse.snapshot_for_checkpoint(), protocol=5))
            dense_snap = dense.snapshot_for_checkpoint()
            assert_agree(snap, dense_snap)
            if op == "restore":
                sparse, dense = snap, dense_snap
        assert_agree(sparse, dense)


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
