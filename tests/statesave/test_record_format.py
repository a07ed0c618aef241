"""Checkpoint records pickle positionally: class plus values, no schema."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import RecoveryError
from repro.protocol.logs import (
    CollectiveRecord,
    CollectiveResultLog,
    EpochLogs,
    LateMessageLog,
    LateRecord,
    MatchLog,
    MatchRecord,
    NondetLog,
)
from repro.protocol.mpi_state import CallRecord, MpiStateLog
from repro.protocol.pseudo_handles import PseudoHandle, PseudoRequest
from repro.protocol.state import ProtocolState
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.statesave.format import CheckpointData
from repro.statesave.storage import CommitRecord, Storage

from test_byte_determinism import ring_app


def round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def logs():
    out = EpochLogs(epoch=4)
    out.late.append(LateRecord(source=1, tag=7, message_id=3, payload=[1.5]))
    out.nondet.append(0.25)
    out.matches.append(MatchRecord(source=1, tag=7, message_id=3, was_late=True))
    out.collectives.append(CollectiveRecord(kind="allreduce", result=9.0))
    return out


def protocol_state():
    state = ProtocolState(rank=1, nprocs=4, epoch=2, next_message_id=5)
    state.send_count[2] = 3
    state.early_ids[0] = [1, 4]
    state.total_sent[3] = 0
    return state


def checkpoint():
    mpi_log = MpiStateLog()
    handle = mpi_log.new_handle("comm")
    mpi_log.record("comm_dup", (-1,), handle)
    handle._live = object()  # a live binding never reaches the bytes
    request = PseudoRequest(kind="irecv", req_id=2, source=0, tag=5)
    request._live = object()
    return CheckpointData(
        rank=1, epoch=2, protocol=protocol_state(), early_ids={0: [1, 4]},
        requests=[request], mpi_records=mpi_log, handles=[handle],
        coll_seqs={-1: 6}, app_state={"handle": handle, "x": 2.0}, taken_at=0.125,
    )


#: Field names of every positional record: none may appear in its bytes.
FIELD_NAMES = [
    b"taken_at", b"app_state", b"coll_seqs", b"mpi_records", b"early_ids",
    b"checkpoint_requested", b"previous_receive_count", b"next_handle_id",
    b"handle_id", b"has_payload", b"committed_at", b"collectives", b"_consumed",
    b"cursor",
]


def test_checkpoint_data_round_trips_with_aliasing_and_no_field_names():
    data = checkpoint()
    blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    assert not [name for name in FIELD_NAMES if name in blob]
    back = pickle.loads(blob)
    assert back.protocol == data.protocol
    assert back.mpi_records == data.mpi_records
    assert back.requests == data.requests and back.handles == data.handles
    assert back.app_state["handle"] is back.handles[0]
    assert back.handles[0]._live is None and back.requests[0]._live is None
    assert (back.early_ids, back.coll_seqs, back.taken_at) == ({0: [1, 4]}, {-1: 6}, 0.125)


@pytest.mark.parametrize("make", [
    protocol_state,
    lambda: MpiStateLog([CallRecord("op_create", ("sum", True), 0)], next_handle_id=1),
    lambda: CallRecord("attach_buffer", (1024,)),
    lambda: PseudoRequest(kind="isend", req_id=0, dest=2, tag=1),
    lambda: PseudoHandle(kind="op", handle_id=0),
    lambda: CommitRecord(epoch=3, committed_at=0.5, nprocs=4),
], ids=["ProtocolState", "MpiStateLog", "CallRecord", "PseudoRequest",
        "PseudoHandle", "CommitRecord"])
def test_record_round_trips(make):
    record = make()
    blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    assert not [name for name in FIELD_NAMES if name in blob]
    assert round_trip(record) == record


def test_log_round_trip_restores_records_with_cursors_at_zero():
    back = round_trip(logs())
    assert back.epoch == 4
    assert back.late.records == [LateRecord(1, 7, 3, [1.5])]
    assert back.nondet.records == [0.25]
    assert back.matches.records == [MatchRecord(1, 7, 3, True)]
    assert back.collectives.records == [CollectiveRecord("allreduce", 9.0)]
    assert back.summary() == {"late": 1, "nondet": 1, "matches": 1, "collectives": 1}
    for log in (back.nondet, back.matches, back.collectives):
        assert log.cursor == 0
    assert back.late.remaining() == 1
    assert back.late.take_by_id(1, 3) == LateRecord(1, 7, 3, [1.5])


@pytest.mark.parametrize("log", [NondetLog, MatchLog, CollectiveResultLog])
def test_cursor_log_saved_mid_replay_is_a_bug(log):
    record = log()
    record.append(1)
    record.next()
    with pytest.raises(RecoveryError, match="mid-replay"):
        pickle.dumps(record)


def test_log_saved_mid_replay_raises_under_optimize():
    """The guard is not an ``assert``: ``python -O`` keeps it."""
    script = (
        "import pickle\n"
        "from repro.errors import RecoveryError\n"
        "from repro.protocol.logs import MatchLog\n"
        "log = MatchLog()\n"
        "log.append(1)\n"
        "log.next()\n"
        "try:\n"
        "    pickle.dumps(log)\n"
        "except RecoveryError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('a mid-replay MatchLog pickled')\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_late_log_saved_mid_replay_is_a_bug():
    late = LateMessageLog()
    late.append(LateRecord(0, 1, 2, None))
    late.take_by_id(0, 2)
    with pytest.raises(RecoveryError, match="mid-replay"):
        pickle.dumps(late)


def test_stored_run_reads_back_positional_records():
    storage = Storage(None)
    config = RunConfig(
        nprocs=3, seed=11, variant=Variant.FULL,
        checkpoint_interval=0.002, detector_timeout=0.03,
    )
    run_with_recovery(ring_app, config, storage=storage)
    line = storage.restore_line()
    assert line is not None and len(line.pairs) == 3
    for rank, (data, epoch_logs) in enumerate(line.pairs):
        assert (data.rank, data.epoch, epoch_logs.epoch) == (rank, line.epoch, line.epoch)
        assert isinstance(data.protocol, ProtocolState)
        assert epoch_logs.matches.cursor == 0 and epoch_logs.late.remaining() == len(epoch_logs.late)
    assert [r.epoch for r in storage.commit_history()] == [line.epoch]
