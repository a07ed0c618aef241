"""Pseudo-handles and MPI-state record/replay (paper Section 5.2)."""

import pickle

import pytest

from repro.errors import ProtocolError, RecoveryError
from repro.protocol.mpi_state import CallRecord, HandleRegistry, MpiStateLog
from repro.protocol.pseudo_handles import PseudoHandle, PseudoRequest, RequestTable
from repro.protocol import C3Config, ProtocolPipeline
from repro.protocol.stages import FULL_STACK, build_stages
from repro.simmpi import SUM, run_simple
from repro.statesave import Storage


def make_pipeline(comm, cfg, storage):
    return ProtocolPipeline(
        comm, stages=build_stages(FULL_STACK, cfg), config=cfg, storage=storage
    )


class TestPseudoRequest:
    def test_kind_validation(self):
        with pytest.raises(ProtocolError):
            PseudoRequest(kind="ibcast", req_id=0)

    def test_live_binding_never_pickled(self):
        req = PseudoRequest(kind="irecv", req_id=1, source=0, tag=5)
        req._live = object()  # unpicklable stand-in for a live request
        restored = pickle.loads(pickle.dumps(req))
        assert restored._live is None
        assert restored.source == 0 and restored.tag == 5


class TestRequestTable:
    def test_ids_monotone(self):
        table = RequestTable()
        a = table.new("isend", dest=1)
        b = table.new("irecv", source=0)
        assert b.req_id == a.req_id + 1

    def test_retire_removes(self):
        table = RequestTable()
        req = table.new("isend", dest=1)
        table.retire(req)
        assert req.consumed
        assert table.outstanding == {}

    def test_snapshot_excludes_retired(self):
        table = RequestTable()
        keep = table.new("irecv", source=0)
        gone = table.new("isend", dest=1)
        table.retire(gone)
        image = table.snapshot()
        assert [r.req_id for r in image] == [keep.req_id]

    def test_restore_continues_id_sequence(self):
        table = RequestTable()
        table.new("isend", dest=1)
        image = table.snapshot()
        fresh = RequestTable()
        fresh.restore(image)
        new = fresh.new("irecv", source=0)
        assert new.req_id > image[0].req_id


class TestMpiStateLog:
    def test_record_and_replay_order(self):
        log = MpiStateLog()
        h1 = log.new_handle("comm")
        log.record("comm_dup", (-1,), h1)
        h2 = log.new_handle("op")
        log.record("op_create", ("MYOP",), h2)
        log.record("attach_buffer", (1024,))

        calls = []
        executors = {
            "comm_dup": lambda parent: calls.append(("dup", parent)) or f"live-dup",
            "op_create": lambda name: calls.append(("op", name)) or f"live-op",
            "attach_buffer": lambda n: calls.append(("buf", n)),
        }
        handles = {h.handle_id: h for h in (h1, h2)}
        log.replay(executors, handles)
        assert calls == [("dup", -1), ("op", "MYOP"), ("buf", 1024)]
        assert h1._live == "live-dup"
        assert h2._live == "live-op"

    def test_replay_unknown_fn_rejected(self):
        log = MpiStateLog()
        log.records.append(CallRecord(fn="mystery", args=()))
        with pytest.raises(RecoveryError):
            log.replay({}, {})

    def test_replay_unknown_handle_rejected(self):
        log = MpiStateLog()
        log.records.append(CallRecord(fn="comm_dup", args=(-1,), handle_id=99))
        with pytest.raises(RecoveryError):
            log.replay({"comm_dup": lambda p: "x"}, {})

    def test_log_picklable(self):
        log = MpiStateLog()
        h = log.new_handle("comm")
        log.record("comm_dup", (-1,), h)
        restored = pickle.loads(pickle.dumps(log))
        assert restored.records[0].fn == "comm_dup"
        assert restored.next_handle_id == 1


class TestHandleRegistry:
    def test_snapshot_restore(self):
        reg = HandleRegistry()
        h = PseudoHandle(kind="comm", handle_id=3)
        reg.add(h)
        image = reg.snapshot()
        fresh = HandleRegistry()
        fresh.restore(image)
        assert fresh.by_id[3].kind == "comm"


class TestLayerPersistentObjects:
    def test_comm_dup_through_layer(self):
        storage = Storage()

        def main(ctx):
            layer = make_pipeline(ctx.comm, C3Config(save_app_state=False), storage)
            sub = layer.comm_dup()
            total = yield from layer.co_allreduce(ctx.rank, SUM, comm=sub)
            return (total, layer.comm_rank(sub), layer.comm_size(sub))

        result = run_simple(main, nprocs=3, seed=0)
        assert result.completed
        assert all(r == (3, rank, 3) for rank, r in enumerate(result.results))

    def test_comm_split_through_layer(self):
        storage = Storage()

        def main(ctx):
            layer = make_pipeline(ctx.comm, C3Config(save_app_state=False), storage)
            sub = yield from layer.co_comm_split(color=ctx.rank % 2)
            return (yield from layer.co_allreduce(1, SUM, comm=sub))

        result = run_simple(main, nprocs=4, seed=1)
        assert result.completed
        assert result.results == [2, 2, 2, 2]

    def test_op_create_and_attach_recorded(self):
        storage = Storage()

        def main(ctx):
            layer = make_pipeline(ctx.comm, C3Config(save_app_state=False), storage)
            layer.op_create("concat-strings", lambda a, b: a + b)
            layer.attach_buffer(4096)
            return [r.fn for r in layer.mpi_log.records]

        result = run_simple(main, nprocs=2, seed=2)
        assert result.results[0] == ["op_create", "attach_buffer"]

    def test_persistent_objects_survive_recovery(self):
        """A communicator created before a checkpoint is usable after
        restart (recreated by call replay)."""
        from repro.runtime import RunConfig, run_with_recovery
        from repro.simmpi import FailureSchedule

        def app(ctx):
            sub = ctx.mpi.comm_dup()
            state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
            while state["i"] < 100:
                state["acc"] += (yield from ctx.mpi.co_allreduce(state["i"], SUM, comm=sub))
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["acc"]

        cfg = RunConfig(nprocs=3, seed=5, checkpoint_interval=0.002,
                        detector_timeout=0.04)
        gold = run_with_recovery(app, cfg)
        out = run_with_recovery(app, cfg, failures=FailureSchedule.single(0.004, 1))
        assert out.results == gold.results
        assert out.attempts[1].started_from_epoch >= 1
