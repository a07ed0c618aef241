"""CommLike conformance: every variant exposes one surface.

The conformance suite is parametrized over the four variants of Section
6.2, so a new ``Variant`` member is conformance-checked for free.
"""

import inspect

import pytest

from repro.api.comms import CommLike, RawCommAdapter, RawHandle
from repro.errors import ProtocolError
from repro.protocol.stages import ProtocolPipeline
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.runtime.context import C3AppContext
from repro.simmpi import SUM
from repro.simmpi.comm import Comm
from repro.simmpi.request import RecvRequest, SendRequest

#: The operations that can suspend a rank: each exists once, as ``co_<name>``.
SUSPENDING = (
    "send", "isend", "recv", "irecv", "wait", "test", "sendrecv",
    "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
    "alltoall", "scan", "barrier", "comm_split",
    "potential_checkpoint", "nondet",
)

#: Every method the protocol names (the paper's Figure-2 surface).
COMMLIKE_METHODS = tuple("co_" + name for name in SUSPENDING) + (
    "comm_dup", "op_create", "attach_buffer", "comm_rank", "comm_size",
)


def parameters(cls, name):
    """``name``'s parameter list on ``cls``: names, kinds and defaults."""
    signature = inspect.signature(inspect.getattr_static(cls, name))
    return [(p.name, p.kind, p.default) for p in signature.parameters.values()]


@pytest.mark.parametrize("impl", [RawCommAdapter, ProtocolPipeline])
def test_class_declares_full_surface(impl):
    """Both implementations declare every ``CommLike`` member with the
    protocol's own parameter list, and ``CommLike`` declares nothing
    more than the surface listed here."""
    declared = {
        name for name, member in vars(CommLike).items()
        if callable(member) and not name.startswith("_")
    }
    assert declared == set(COMMLIKE_METHODS)
    for name in COMMLIKE_METHODS:
        member = inspect.getattr_static(impl, name)
        assert callable(member), f"{impl.__name__}.{name} is not callable"
        assert parameters(impl, name) == parameters(CommLike, name), (
            f"{impl.__name__}.{name} differs from CommLike.{name}"
        )


@pytest.mark.parametrize("impl", [RawCommAdapter, ProtocolPipeline, C3AppContext])
def test_suspending_operations_have_one_form(impl):
    """No synchronous twin of a suspending operation above the simulator."""
    for name in SUSPENDING + ("restore_from", "random", "yield_point"):
        with pytest.raises(AttributeError):
            inspect.getattr_static(impl, name)


@pytest.mark.parametrize("impl", [Comm, SendRequest, RecvRequest])
def test_simulator_has_no_sync_names(impl):
    """The simulator's ``Comm`` and ``Request`` are generator-only too."""
    for name in (
        "send", "recv", "recv_envelope", "sendrecv", "probe", "bcast", "reduce",
        "allreduce", "gather", "allgather", "scatter", "alltoall", "barrier",
        "scan", "split", "wait",
    ):
        with pytest.raises(AttributeError):
            inspect.getattr_static(impl, name)


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
        sreq = yield from mpi.co_isend(state["i"] * 10 + ctx.rank, peer, tag=2)
        rreq = yield from mpi.co_irecv(source=prev, tag=2)
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


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.label)
def test_stack_conformance(variant):
    """Every variant satisfies CommLike and computes the same answer for
    the same seed (the protocol is application-transparent)."""
    cfg = RunConfig(nprocs=3, seed=13, variant=variant,
                    checkpoint_interval=0.002, detector_timeout=0.04)
    out = run_with_recovery(conformance_app, cfg)
    baseline = run_with_recovery(
        conformance_app,
        RunConfig(nprocs=3, seed=13, variant=Variant.UNMODIFIED),
    )
    assert out.results == baseline.results


def test_receive_counts_agree_across_variants():
    """``LayerStats`` counts one receive per completed request under every
    variant, including a raw receive that ``co_test`` completed first."""

    def app(ctx):
        peer = (ctx.rank + 1) % ctx.size
        prev = (ctx.rank - 1) % ctx.size
        yield from ctx.mpi.co_send(ctx.rank, peer, tag=1)
        req = yield from ctx.mpi.co_irecv(source=prev, tag=1)
        while not (yield from ctx.mpi.co_test(req)):
            yield from ctx.co_yield_point()
        first = yield from ctx.mpi.co_wait(req)
        req = yield from ctx.mpi.co_irecv(source=prev, tag=2)
        yield from ctx.mpi.co_send(ctx.rank + 10, peer, tag=2)
        second = yield from ctx.mpi.co_wait(req)
        return (first, second)

    counts = {}
    for variant in Variant:
        out = run_with_recovery(app, RunConfig(nprocs=2, seed=1, variant=variant))
        assert out.results == [(1, 11), (0, 10)], variant
        counts[variant] = [(s.sends, s.receives) for s in out.layer_stats]
    assert set(map(tuple, counts.values())) == {((2, 2), (2, 2))}, counts


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
            req = yield from ctx.mpi.co_isend(ctx.rank * 10, peer, tag=3)
            rreq = yield from ctx.mpi.co_irecv(source=(ctx.rank - 1) % ctx.size, tag=3)
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
