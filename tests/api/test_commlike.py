"""CommLike conformance: every stage stack exposes one surface.

The conformance suite is parametrized over *all registered stacks* —
the built-in V0–V3 plus a custom user-registered composition — so any
new stage stack is conformance-checked for free.
"""

import inspect

import pytest

from repro.api.comms import CommLike, RawCommAdapter, RawHandle
from repro.errors import ProtocolError
from repro.protocol.stages import (
    FULL_STACK,
    ProtocolPipeline,
    ProtocolStage,
    list_stacks,
    register_stack,
    register_stage,
)
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM

#: Every method the protocol names (the paper's Figure-2 surface).
COMMLIKE_METHODS = (
    "send", "isend", "recv", "irecv", "wait", "test", "sendrecv",
    "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
    "alltoall", "scan", "barrier",
    "comm_dup", "comm_split", "op_create", "comm_rank", "comm_size",
    "potential_checkpoint", "nondet",
)


class _ConformanceTraceStage(ProtocolStage):
    """Custom observer stage: proves user stages ride the pipeline."""

    name = "conformance-trace"

    def on_send(self, payload, dest, tag):
        pass

    def on_receive(self, env):
        pass


register_stage("conformance-trace", _ConformanceTraceStage, replace=True)
register_stack(
    "conformance-custom",
    FULL_STACK + ("conformance-trace",),
    description="V3 plus a tracing observer stage (conformance fixture)",
    replace=True,
)

#: Evaluated at collection time: V0-V3 plus the custom stack above (and
#: any stack registered before this module imports).
ALL_STACKS = list_stacks()


@pytest.mark.parametrize("impl", [RawCommAdapter, ProtocolPipeline])
def test_class_declares_full_surface(impl):
    for name in COMMLIKE_METHODS:
        member = inspect.getattr_static(impl, name)
        assert callable(member), f"{impl.__name__}.{name} is not callable"


def conformance_app(ctx):
    """Exercises the full CommLike surface and returns a digest."""
    mpi = ctx.mpi
    assert isinstance(mpi, CommLike)
    for name in COMMLIKE_METHODS:
        assert callable(getattr(mpi, name)), name
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
    peer = (ctx.rank + 1) % ctx.size
    prev = (ctx.rank - 1) % ctx.size
    while state["i"] < 8:
        sreq = mpi.isend(state["i"] * 10 + ctx.rank, peer, tag=2)
        rreq = mpi.irecv(source=prev, tag=2)
        got = yield from mpi.co_wait(rreq)
        yield from mpi.co_wait(sreq)
        one = yield from ctx.co_nondet(lambda: 1)
        state["acc"] += got + (yield from mpi.co_allreduce(one, SUM))
        state["acc"] += (yield from mpi.co_sendrecv(got, peer, prev, send_tag=3))
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    dup = mpi.comm_dup()
    total = yield from mpi.co_allreduce(1, SUM, comm=dup)
    yield from mpi.co_barrier()
    return (state["acc"], total, mpi.comm_rank(), mpi.comm_size())


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_stack_conformance(stack):
    """Every registered stack satisfies CommLike and computes the same
    answer for the same seed (the protocol is application-transparent)."""
    cfg = RunConfig(nprocs=3, seed=13, stack=stack,
                    checkpoint_interval=0.002, detector_timeout=0.04)
    out = run_with_recovery(conformance_app, cfg)
    baseline = run_with_recovery(
        conformance_app,
        RunConfig(nprocs=3, seed=13, variant=Variant.UNMODIFIED),
    )
    assert out.results == baseline.results


def test_custom_stack_observer_stage_sees_traffic():
    """The custom stage is dispatched and shows up in per-stage counters."""
    cfg = RunConfig(nprocs=2, seed=1, stack="conformance-custom",
                    checkpoint_interval=0.002, detector_timeout=0.04)
    out = run_with_recovery(conformance_app, cfg)
    totals = out.stage_totals()
    assert totals["conformance-trace"]["calls"] > 0
    # The observer rides along with all six built-in stages.
    for name in FULL_STACK:
        assert name in totals


@pytest.mark.parametrize(
    "variant, expected",
    [
        (Variant.UNMODIFIED, "RawCommAdapter"),
        (Variant.PIGGYBACK, "ProtocolPipeline"),
        (Variant.NO_APP_STATE, "ProtocolPipeline"),
        (Variant.FULL, "ProtocolPipeline"),
    ],
)
def test_isinstance_commlike_under_every_variant(variant, expected):
    """The live ``ctx.mpi`` object satisfies the runtime protocol check."""

    def app(ctx):
        assert isinstance(ctx.mpi, CommLike)
        yield from ctx.mpi.co_barrier()
        return type(ctx.mpi).__name__

    cfg = RunConfig(nprocs=2, seed=1, variant=variant,
                    checkpoint_interval=0.002, detector_timeout=0.04)
    out = run_with_recovery(app, cfg)
    assert out.results == [expected, expected]


def test_app_runs_unmodified_under_all_variants():
    """One instrumented app, four variants, identical answers — including
    V0 where the hooks are no-ops on the raw adapter."""

    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
        while state["i"] < 25:
            one = yield from ctx.co_nondet(lambda: 1)
            state["acc"] += yield from ctx.mpi.co_allreduce(state["i"] + one, SUM)
            state["i"] += 1
            yield from ctx.co_potential_checkpoint()
        return state["acc"]

    results = {}
    for variant in Variant:
        cfg = RunConfig(nprocs=3, seed=5, variant=variant,
                        checkpoint_interval=0.002, detector_timeout=0.04)
        results[variant] = run_with_recovery(app, cfg).results
    assert len({tuple(r) for r in results.values()}) == 1


class TestRawCommAdapter:
    def run_app(self, app, nprocs=2, seed=0):
        cfg = RunConfig(nprocs=nprocs, seed=seed, variant=Variant.UNMODIFIED)
        return run_with_recovery(app, cfg)

    def test_point_to_point_and_requests(self):
        def app(ctx):
            peer = (ctx.rank + 1) % ctx.size
            req = ctx.mpi.isend(ctx.rank * 10, peer, tag=3)
            rreq = ctx.mpi.irecv(source=(ctx.rank - 1) % ctx.size, tag=3)
            got = yield from ctx.mpi.co_wait(rreq)
            yield from ctx.mpi.co_wait(req)
            assert (yield from ctx.mpi.co_test(req))
            back = yield from ctx.mpi.co_sendrecv(got, peer, (ctx.rank - 1) % ctx.size, send_tag=4)
            return (got, back)

        out = self.run_app(app, nprocs=3)
        assert [g for g, _ in out.results] == [20, 0, 10]

    def test_communicator_construction_and_handles(self):
        def app(ctx):
            dup = ctx.mpi.comm_dup()
            assert ctx.mpi.comm_rank(dup) == ctx.rank
            assert ctx.mpi.comm_size(dup) == ctx.size
            total = yield from ctx.mpi.co_allreduce(1, SUM, comm=dup)
            half = yield from ctx.mpi.co_comm_split(color=ctx.rank % 2)
            sub = yield from ctx.mpi.co_allreduce(ctx.rank, SUM, comm=half)
            yield from ctx.mpi.co_barrier()
            return (total, sub)

        out = self.run_app(app, nprocs=4)
        assert out.results == [(4, 0 + 2), (4, 1 + 3), (4, 0 + 2), (4, 1 + 3)]

    def test_op_create_returns_usable_handle(self):
        def app(ctx):
            h = ctx.mpi.op_create("rawmax2", lambda a, b: max(a, b))
            assert isinstance(h, RawHandle)
            return (yield from ctx.mpi.co_allreduce(ctx.rank, h._live))

        out = self.run_app(app, nprocs=3)
        assert out.results == [2, 2, 2]

    def test_hooks_are_noops(self):
        def app(ctx):
            assert (yield from ctx.co_potential_checkpoint()) is False
            return (yield from ctx.co_nondet(lambda: 7))

        assert self.run_app(app).results == [7, 7]

    def test_no_piggyback_on_wire(self):
        def app(ctx):
            peer = (ctx.rank + 1) % ctx.size
            yield from ctx.mpi.co_send("x", peer, tag=1)
            env = yield from ctx.mpi.comm.co_recv_envelope(
                source=(ctx.rank - 1) % ctx.size, tag=1
            )
            return env.piggyback

        assert self.run_app(app).results == [None, None]

    def test_initiator_hook_rejected(self):
        def app(ctx):
            with pytest.raises(ProtocolError):
                ctx.mpi.request_checkpoint_now()
            yield from ctx.mpi.co_barrier()
            return True

        assert self.run_app(app).results == [True, True]
