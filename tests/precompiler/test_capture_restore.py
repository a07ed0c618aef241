"""Stack capture/restore mechanics and end-to-end precompiled recovery."""

import dataclasses
import pickle

import pytest

from repro.errors import RecoveryError
from repro.precompiler import PrecompiledApp, Precompiler
from repro.precompiler.runtime import C3StackRuntime
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM, FailureSchedule, coop
from repro.simmpi.process import Proc

from tests.precompiler import support_functions as sf


class CapturingCtx:
    """Fake ctx whose potential_checkpoint captures the live stack.

    ``capture()`` returns live references, so — exactly like the protocol
    layer's checkpoint writer — the snapshot must be serialised at capture
    time, before the application mutates anything.
    """

    def __init__(self, rt):
        self.rt = rt
        self.captures = []

    def potential_checkpoint(self):
        self.captures.append(pickle.dumps(self.rt.capture()))


@pytest.fixture(autouse=True)
def rank():
    """The active runtime lives on the executing rank; outside the
    simulator the tests install one themselves."""
    coop.set_current_proc(Proc(None, 0, None))
    yield
    coop.set_current_proc(None)


@pytest.fixture()
def unit():
    return Precompiler([sf.branches, sf.leaf], unit_name="cap").compile()


class TestCapture:
    def test_capture_sees_both_frames(self, unit):
        rt = C3StackRuntime(unit).activate()
        try:
            ctx = CapturingCtx(rt)
            unit.entry("branches")(ctx, 4)
        finally:
            rt.deactivate()
        assert ctx.captures
        first = pickle.loads(ctx.captures[0])
        assert [fid for fid, _ in first] == ["cap.branches", "cap.leaf"]
        for _fid, frame in first:
            assert "_pc" in frame

    def test_excluded_locals_not_captured(self, unit):
        rt = C3StackRuntime(unit).activate()
        try:
            ctx = CapturingCtx(rt)
            unit.entry("branches")(ctx, 4)
        finally:
            rt.deactivate()
        for _fid, frame in pickle.loads(ctx.captures[0]):
            assert "ctx" not in frame
            assert "_c3fr" not in frame

    def test_captured_frames_picklable(self, unit):
        rt = C3StackRuntime(unit).activate()
        try:
            ctx = CapturingCtx(rt)
            unit.entry("branches")(ctx, 6)
        finally:
            rt.deactivate()
        assert pickle.loads(ctx.captures[-1])[0][0] == "cap.branches"

    def test_restore_resumes_mid_loop(self, unit):
        """Capture at checkpoint k, then re-enter with those frames: the
        function must complete with the same answer as an uninterrupted
        run."""
        rt = C3StackRuntime(unit).activate()
        try:
            ctx = CapturingCtx(rt)
            expected = unit.entry("branches")(ctx, 9)
            # Pick a mid-run capture and replay from it.
            frames = pickle.loads(ctx.captures[1])
            rt.begin_restore(frames)
            resumed = unit.entry("branches")(CapturingCtx(rt), 9)
        finally:
            rt.deactivate()
        assert resumed == expected

    def test_restore_mismatch_detected(self, unit):
        rt = C3StackRuntime(unit).activate()
        try:
            rt.begin_restore([("cap.leaf", {"_pc": 0})])
            with pytest.raises(RecoveryError, match="mismatch"):
                unit.entry("branches")(CapturingCtx(rt), 3)
        finally:
            rt.deactivate()


def deep_worker(ctx, depth, base):
    if depth == 0:
        val = exchange(ctx, base)
        return val
    return deep_worker(ctx, depth - 1, base) + 1


def exchange(ctx, value):
    partner = (ctx.rank + 1) % ctx.size
    ctx.mpi.send(value + ctx.rank, partner, tag=4)
    got = ctx.mpi.recv(source=(ctx.rank - 1) % ctx.size, tag=4)
    total = ctx.mpi.allreduce(got, SUM)
    ctx.potential_checkpoint()
    return total


def deep_main(ctx):
    acc = 0
    for i in range(80):
        acc += deep_worker(ctx, 3, i)
    return acc


def comm_ring(comm):
    """The context parameter spelled ``comm``, as ``comm_roots`` allows."""
    peer = (comm.rank + 1) % comm.size
    acc = comm.rank
    for i in range(120):
        acc = (acc + comm.mpi.sendrecv(acc + i, peer, peer, send_tag=3)) % 1000003
        comm.potential_checkpoint()
    return acc


class TestEndToEndPrecompiled:
    def test_context_parameter_named_comm_is_not_pickled(self):
        """Whatever name carries the context, it is re-supplied by the
        caller on restore and never saved (it holds locks)."""
        unit = Precompiler([comm_ring], unit_name="ring").compile()
        app = PrecompiledApp(unit, entry="comm_ring")
        cfg = RunConfig(nprocs=2, seed=5, checkpoint_interval=0.002,
                        detector_timeout=0.04)
        gold = run_with_recovery(app, dataclasses.replace(cfg, variant=Variant.UNMODIFIED))
        full = run_with_recovery(app, cfg)
        assert full.checkpoints_committed >= 1
        out = run_with_recovery(app, cfg, failures=FailureSchedule.single(0.004, 1))
        assert out.results == full.results == gold.results
        assert out.attempts[1].started_from_epoch >= 1

    def test_recovery_through_deep_recursion(self):
        """Checkpoints taken five frames deep must rebuild the whole stack."""
        unit = Precompiler([deep_main, deep_worker, exchange], unit_name="deep").compile()
        app = PrecompiledApp(unit, entry="deep_main")
        cfg = RunConfig(nprocs=3, seed=8, checkpoint_interval=0.002,
                        detector_timeout=0.04)
        gold = run_with_recovery(app, cfg)
        out = run_with_recovery(app, cfg, failures=FailureSchedule.single(0.006, 1))
        assert out.results == gold.results
        assert len(out.attempts) == 2
        assert out.attempts[1].started_from_epoch >= 1
