"""Experiment A-PROT: protocol micro-costs.

Per-operation throughput of the pieces that run on every message:
counter bookkeeping, match logging, and the late-message log — the
constant factors behind the layer's per-message overhead — plus the simulator's scheduling slice (a rank generator resumed once per
simulated MPI call) across rank counts, and the :mod:`repro.trace`
emission path (off, the single attribute read every hot path pays; on,
the full ring append).

The ``test_guard_*`` functions at the end are timing-free: they count
the host work the per-operation path must *not* do (pickling to size a
control message, building a receive descriptor or a progress generator
for an idle poll, entering numpy for one random draw) or
bound it (Python calls per simulated message) and run as plain
assertions in CI.
"""

import pytest

from repro.protocol.logs import LateMessageLog, LateRecord, MatchLog, MatchRecord
from repro.protocol.state import ProtocolState
from repro.simmpi import SUM
from repro.simmpi.simulator import SimConfig, Simulator
from repro.trace import TraceRecorder

N = 5000


def test_send_bookkeeping(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        state = ProtocolState(rank=0, nprocs=8)
        for i in range(N):
            state.note_send(1 + (i % 7))
        return state.next_message_id

    assert benchmark(run) == N


def test_match_log_append(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        log = MatchLog()
        for i in range(N):
            log.append(MatchRecord(source=i % 4, tag=1, message_id=i, was_late=False))
        return len(log)

    assert benchmark(run) == N


def test_late_log_append_and_consume(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        log = LateMessageLog()
        for i in range(1000):
            log.append(LateRecord(source=i % 4, tag=1, message_id=i, payload=i))
        consumed = 0
        for i in range(1000):
            if log.take_by_id(i % 4, i) is not None:
                consumed += 1
        return consumed

    assert benchmark(run) == 1000


def test_epoch_transition(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        state = ProtocolState(rank=0, nprocs=16)
        for _ in range(200):
            state.note_send(1)
            state.epoch_transition()
        return state.epoch

    assert benchmark(run) == 200


def test_snapshot_cost(benchmark):
    benchmark.group = "protocol-micro"
    state = ProtocolState(rank=0, nprocs=16)

    def run():
        return state.snapshot_for_checkpoint()

    snap = benchmark(run)
    assert snap.rank == 0


# --------------------------------------------------------------------- #
# Trace-emission overhead (the tentpole's cost envelope).
#
# The two simulator benchmarks below differ only in whether a recorder is
# armed: tracing off must be indistinguishable from the pre-trace
# baseline (every emission site is one attribute read + None check), and
# tracing on must stay within ~10% (one dataclass append per event into a
# bounded deque).  The bench-smoke JSON artifact exhibits the ratio.
# --------------------------------------------------------------------- #


def _ring(ctx):
    peer = (ctx.rank + 1) % ctx.size
    for i in range(60):
        yield from ctx.comm.co_send(i, peer, tag=1)
        yield from ctx.comm.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
    return 1


def test_sim_run_tracing_off(benchmark):
    benchmark.group = "trace-overhead"

    def run():
        sim = Simulator(SimConfig(nprocs=8, seed=3), _ring)
        return sum(sim.run().results)

    assert benchmark(run) == 8


def test_sim_run_tracing_on(benchmark):
    benchmark.group = "trace-overhead"

    def run():
        sim = Simulator(
            SimConfig(nprocs=8, seed=3), _ring, tracer=TraceRecorder()
        )
        return sum(sim.run().results)

    assert benchmark(run) == 8


def test_trace_emit_throughput(benchmark):
    """Raw cost of one emit: timestamp + dataclass + deque append."""
    benchmark.group = "trace-overhead"

    def run():
        recorder = TraceRecorder(capacity=1024)
        for i in range(N):
            recorder.emit("sched", "grant", t=float(i), rank=i & 7)
        return len(recorder)

    assert benchmark(run) == 1024


# --------------------------------------------------------------------- #
# Rank scaling.
#
# The same seeded workload across rank counts, under round_robin and zero
# network jitter (no RNG draws anywhere), so the measured time is the
# simulator's per-slice work and how it grows with nprocs.
# --------------------------------------------------------------------- #

RING_ITERS = 10


def _co_scaling_ring(ctx):
    peer = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for i in range(RING_ITERS):
        yield from ctx.comm.co_send(i, peer, tag=1)
        yield from ctx.comm.co_recv(source=left, tag=1)
    return 1


def _co_scaling_allreduce(ctx):
    total = 0
    for _ in range(4):
        total = yield from ctx.comm.co_allreduce(1, SUM)
    return total


_SCALING_WORKLOADS = {
    "ring": (_co_scaling_ring, lambda n: n),
    "allreduce": (_co_scaling_allreduce, lambda n: n * n),
}


@pytest.mark.parametrize("nprocs", [8, 64, 256, 1024])
@pytest.mark.parametrize("workload", sorted(_SCALING_WORKLOADS))
def test_rank_scaling(benchmark, workload, nprocs):
    benchmark.group = f"rank-scaling-{workload}"
    main, expected = _SCALING_WORKLOADS[workload]
    # round_robin + zero jitter keeps numpy out of the hot loop.
    config = SimConfig(nprocs=nprocs, seed=3, sched_policy="round_robin", jitter=0.0)

    def run():
        return sum(Simulator(config, main).run().results)

    assert benchmark(run) == expected(nprocs)


# --------------------------------------------------------------------- #
# Timing-free guards on the per-operation host path.
#
# A 16-rank laplace V2 run (waves, no application state; round-robin and
# zero jitter like the benchmark's 64-rank workload; V3 where named) with
# counting shims on the seams an idle or repeated operation must not reach.
# --------------------------------------------------------------------- #


def _guard_run(checkpoint_interval, variant="NO_APP_STATE"):
    from repro.api.registry import get_app
    from repro.apps.laplace import LaplaceParams
    from repro.runtime import RunConfig, Variant, run_with_recovery

    config = RunConfig(
        nprocs=16, seed=3, variant=Variant.coerce(variant),
        checkpoint_interval=checkpoint_interval,
        sched_policy="round_robin", jitter=0.0,
    )
    out = run_with_recovery(
        get_app("laplace").build(LaplaceParams(n=32, iterations=60)), config
    )
    assert out.completed
    return out


def _total(out, counter):
    return sum(getattr(stats, counter) for stats in out.layer_stats)


def _count_pickle_dumps(monkeypatch):
    """Record every ``pickle.dumps`` call ``sizeof`` makes; returns the list."""
    import pickle
    from types import SimpleNamespace

    from repro.simmpi import datatypes

    dumps_calls = []
    shim = SimpleNamespace(
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        dumps=lambda obj, **kw: dumps_calls.append(obj) or pickle.dumps(obj, **kw),
    )
    monkeypatch.setattr(datatypes, "pickle", shim)
    return dumps_calls


def test_guard_control_traffic_is_sized_without_pickling(monkeypatch):
    """A V3 run with waves sizes every control message as one fixed-width
    int word (``HEADER_BYTES + 8`` on the wire) and calls ``pickle.dumps``
    zero times to do it: laplace's payloads are arrays, so ``sizeof``
    pickles nothing in the whole run."""
    from repro.simmpi import datatypes
    from repro.simmpi.constants import TAG_CONTROL
    from repro.simmpi.network import Network

    dumps_calls = _count_pickle_dumps(monkeypatch)
    control_bytes = []
    real_post = Network.post

    def recording_post(self, env, now):
        if env.tag == TAG_CONTROL:
            control_bytes.append(env.nbytes)
        return real_post(self, env, now)

    monkeypatch.setattr(Network, "post", recording_post)
    out = _guard_run(0.002, "FULL")
    assert out.checkpoints_committed >= 2
    # (a token still in flight when the last rank returns is posted, not handled)
    assert len(control_bytes) >= _total(out, "control_messages") > 16 * 15
    assert set(control_bytes) == {datatypes.HEADER_BYTES + 8}
    assert dumps_calls == []


#: Words per command-exchange round: recursive doubling at 4 ranks, Bruck at 5.
_COMMAND_ROUND_WORDS = {4: (1, 2), 5: (1, 2, 1)}


@pytest.mark.parametrize("nprocs", sorted(_COMMAND_ROUND_WORDS))
def test_guard_command_exchange_is_packed_words(monkeypatch, nprocs):
    """A V1 dense CG ships every round of every command exchange as one
    block of k 32-bit words, ``HEADER_BYTES + 4k`` on the wire, in
    ceil(log2(n)) rounds, and calls ``pickle.dumps`` zero times to size
    any message of the run."""
    from repro.api.registry import get_app
    from repro.apps.dense_cg import CGParams
    from repro.protocol.stages.pipeline import LAYER_COLL_BASE
    from repro.runtime import RunConfig, Variant, run_with_recovery
    from repro.simmpi import datatypes
    from repro.simmpi.collectives_impl import _TAG_STRIDE
    from repro.simmpi.network import Network

    dumps_calls = _count_pickle_dumps(monkeypatch)
    command_bytes = {}
    real_post = Network.post

    def recording_post(self, env, now):
        # Layer collective tags: base - (2 * seq + phase) * stride - round;
        # phase 0 is the command exchange.
        offset = LAYER_COLL_BASE - env.tag
        if offset >= 0 and offset // _TAG_STRIDE % 2 == 0:
            command_bytes.setdefault(offset % _TAG_STRIDE, []).append(env.nbytes)
        return real_post(self, env, now)

    monkeypatch.setattr(Network, "post", recording_post)
    out = run_with_recovery(
        get_app("dense_cg").build(CGParams(n=40, iterations=10)),
        RunConfig(nprocs=nprocs, seed=3, variant=Variant.PIGGYBACK),
    )
    assert out.completed
    words = _COMMAND_ROUND_WORDS[nprocs]
    assert sorted(command_bytes) == list(range(len(words)))
    for rnd, k in enumerate(words):
        assert set(command_bytes[rnd]) == {datatypes.HEADER_BYTES + 4 * k}
        assert len(command_bytes[rnd]) == _total(out, "collectives") > 0
    assert dumps_calls == []


@pytest.mark.parametrize("nprocs", sorted(_COMMAND_ROUND_WORDS))
def test_guard_data_allgather_is_positional(monkeypatch, nprocs):
    """A V0 dense CG ships every data-allgather block as the list of the k
    row blocks it forwards, ``HEADER_BYTES + 8 + 4k + k * nbytes`` on the
    wire, in the command exchange's rounds: no dict, so no rank key, in
    any collective message."""
    from repro.api.registry import get_app
    from repro.apps.dense_cg import CGParams
    from repro.runtime import RunConfig, Variant, run_with_recovery
    from repro.simmpi import datatypes
    from repro.simmpi.collectives_impl import _TAG_STRIDE
    from repro.simmpi.constants import TAG_COLLECTIVE_BASE
    from repro.simmpi.network import Network

    blocks, dicts = {}, []
    real_post = Network.post

    def recording_post(self, env, now):
        # Collective tags: base - seq * stride - round.  The run's other
        # collective is an allreduce of floats.
        offset = TAG_COLLECTIVE_BASE - env.tag
        if offset >= 0 and type(env.payload) is not float:
            blocks.setdefault(offset % _TAG_STRIDE, []).append(env)
        if type(env.payload) is dict:
            dicts.append(env)
        return real_post(self, env, now)

    monkeypatch.setattr(Network, "post", recording_post)
    n = 40
    out = run_with_recovery(
        get_app("dense_cg").build(CGParams(n=n, iterations=10)),
        RunConfig(nprocs=nprocs, seed=3, variant=Variant.UNMODIFIED),
    )
    assert out.completed
    assert dicts == []
    row_bytes = n // nprocs * 8
    per_round = _COMMAND_ROUND_WORDS[nprocs]  # the same schedule
    assert sorted(blocks) == list(range(len(per_round)))
    calls = len(blocks[0]) // nprocs
    for rnd, k in enumerate(per_round):
        assert len(blocks[rnd]) == calls * nprocs > 0
        for env in blocks[rnd]:
            assert type(env.payload) is list and len(env.payload) == k
            assert {v.nbytes for v in env.payload} == {row_bytes}
            assert env.nbytes == datatypes.HEADER_BYTES + 8 + 4 * k + k * row_bytes


def test_guard_receive_descriptors_only_for_app_receives(monkeypatch):
    """Draining control traffic and polling build no ``RecvDescriptor``."""
    from repro.simmpi.mailbox import RecvDescriptor

    built = []
    real_init = RecvDescriptor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(RecvDescriptor, "__init__", counting_init)
    out = _guard_run(0.002)
    assert out.checkpoints_committed >= 2 and _total(out, "control_messages") > 0
    assert _total(out, "collectives") == 0  # laplace: point-to-point only
    assert len(built) == _total(out, "receives") > 0


def test_guard_idle_operations_build_no_progress_generator(monkeypatch):
    """With the control queue empty and no wave due, an operation counts
    its checkpoint-stage poll and creates no ``_co_progress`` generator;
    with waves, one only when a control message is queued or a wave due."""
    from repro.protocol.stages.pipeline import ProtocolPipeline

    progress = []
    real_progress = ProtocolPipeline._co_progress

    def counting_progress(self):
        progress.append(1)
        return real_progress(self)

    monkeypatch.setattr(ProtocolPipeline, "_co_progress", counting_progress)
    idle = _guard_run(None)  # a checkpoint stage that is never asked for a wave
    assert progress == []
    assert idle.stage_totals()["checkpoint"]["calls"] >= (
        _total(idle, "sends") + _total(idle, "receives")
    )
    waves = _guard_run(0.002)
    assert 0 < len(progress) <= (
        _total(waves, "control_messages") + waves.checkpoints_committed
    )
    assert len(progress) < waves.stage_totals()["checkpoint"]["calls"]


def test_guard_stage_dispatch_reads_no_host_clock(monkeypatch):
    """Stage dispatch is counted, never timed: a run with waves reads
    ``time.perf_counter`` a few times per attempt (the simulator's run
    bracket), not once per dispatch."""
    import sys
    import time

    reads = []
    real = time.perf_counter

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(time, "perf_counter", counting)
    # ``from time import perf_counter`` binds the function into a module.
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "perf_counter", None) is real:
            monkeypatch.setattr(module, "perf_counter", counting)
    out = _guard_run(0.002)
    assert out.checkpoints_committed >= 2
    assert sum(entry["calls"] for entry in out.stage_totals().values()) > 10_000
    assert 0 < len(reads) <= 8 * len(out.attempts)


def _co_guard_ring(ctx):
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    for lap in range(50):
        yield from ctx.mpi.co_send(lap, right, tag=1)
        yield from ctx.mpi.co_recv(source=left, tag=1)
    return 1


#: Python calls per delivered message on the 16-rank ring, per variant.
#: Measured 26.65 / 30.85 / 31.00 (Python 3.11) once the pipeline built
#: and read the piggyback word with bit operations on intpack's
#: constants instead of a codec object, a decoded tuple and a classify
#: function (V3's bound keeps one call of slack: 31.00 sits exactly on
#: 31).  26.65 / 37.87 / 38.02 before that, once a message took no
#: helper call or generator it did not need: the peer mapped and the
#: payload sized inline, a scheduling point a bare ``yield`` between kill
#: checks, the pipeline's send handing back ``Comm.co_send``'s generator,
#: its receive running ``Comm.recv_begin`` / ``recv_end`` around its own
#: ``yield`` and classifying with a plain call, ``ctx.rank`` / ``ctx.size``
#: plain attributes, one delivery loop over the network heap.  33.85 /
#: 47.07 / 47.22 before that, once the simulator kept a count of
#: unfinished ranks instead of scanning them on every idle step;
#: 33.9 / 47.2 / 47.3 before that, and 34.1 / 47.3 / 47.5 before
#: ``Mailbox.deliver`` matched without a call per descriptor and the
#: simulator woke a rank without a call.  V1/V3 fell from 51.6 / 51.8
#: when the pipeline ran the piggyback, classifier, message-log, result-log
#: and replay rules itself instead of calling a stage object for each.  V0
#: as a standalone adapter whose ``co_send`` hands back the communicator's
#: generator took it from 35.4; V0's own pass-through arms in ``co_send`` / ``co_recv`` from 38.5
#: before that; the build-every-message path made 53.3 / 68.7 / 68.9.
_CALLS_PER_MESSAGE = {"UNMODIFIED": 27, "PIGGYBACK": 31, "FULL": 32}


def _calls_per_message(main, config, messages: int) -> float:
    """``sys.setprofile`` ``"call"`` events (a generator resume counts as
    one) during a second ``Session.run`` of ``main``, per simulated
    message; the first run pays the imports."""
    import sys

    from repro import Session

    session = Session()
    session.run(main, config)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        out = session.run(main, config)
    finally:
        sys.setprofile(None)
    assert out.completed and out.network_messages == messages
    return calls / out.network_messages


@pytest.mark.parametrize("variant", sorted(_CALLS_PER_MESSAGE))
def test_guard_python_calls_per_message(variant):
    """One simulated message costs a bounded number of Python calls: the
    envelope is built once, model costs are added unchecked, status and
    block diagnostics are described only on demand."""
    from repro.runtime import RunConfig, Variant

    config = RunConfig(
        nprocs=16, seed=3, variant=Variant[variant], checkpoint_interval=None,
        sched_policy="round_robin", jitter=0.0,
    )
    per_message = _calls_per_message(_co_guard_ring, config, 16 * 50)
    assert per_message <= _CALLS_PER_MESSAGE[variant], (
        f"{variant}: {per_message:.1f} Python calls per message"
    )


def _co_guard_allreduce(ctx):
    acc = ctx.rank
    for _ in range(50):
        acc = yield from ctx.mpi.co_allreduce(acc, SUM)
    return acc


#: Python calls per delivered message of a 4-rank ``co_allreduce`` loop
#: under the default random schedule, per variant: the collective path
#: (``coll_send``, ``co_coll_recv``, the wake), which the point-to-point
#: ring above barely touches.  V1 adds one command exchange (8 more
#: messages) per call.  Measured 20.50 / 20.98 (Python 3.11) once a
#: waiting receive blocked with one plain call instead of a generator, the
#: blocked rank's state and the runnable index were flipped directly, one
#: delivery loop popped the network heap, the idle step found the next
#: event without a call, the peer was mapped and the payload sized inline
#: and a pairwise fold called the op's function; 30.46 / 30.47 before
#: that, once each algorithm ran on the communicator with the tag base its caller drew
#: (no endpoint object, no per-round tag check, no forwarding frame) and
#: the simulator counted unfinished ranks instead of scanning them; 36.4 /
#: 35.1 before that, once a blocked rank resumed only when its receive
#: completed, a queued collective message was taken without a receive
#: descriptor and ``Mailbox.deliver`` matched without a call per
#: descriptor; 40.8 / 39.7 before, when every delivery woke its rank for
#: a slice that re-blocked.
_COLL_CALLS_PER_MESSAGE = {"UNMODIFIED": 21, "PIGGYBACK": 21}


@pytest.mark.parametrize("variant", sorted(_COLL_CALLS_PER_MESSAGE))
def test_guard_python_calls_per_collective_message(variant):
    """A collective's message costs a bounded number of Python calls: a
    blocked rank gets no slice for a delivery that does not complete its
    receive."""
    from repro.runtime import RunConfig, Variant

    config = RunConfig(
        nprocs=4, seed=3, variant=Variant[variant], checkpoint_interval=None,
    )
    per_call = 4 * 2 * (2 if variant == "PIGGYBACK" else 1)
    per_message = _calls_per_message(_co_guard_allreduce, config, 50 * per_call)
    assert per_message <= _COLL_CALLS_PER_MESSAGE[variant], (
        f"{variant}: {per_message:.1f} Python calls per message"
    )


class _CountingProxy:
    """Forwards to a numpy ``Generator`` (and its ``bit_generator``),
    recording every call that enters numpy."""

    def __init__(self, target, entered):
        self._target = target
        self._entered = entered

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if name == "bit_generator":
            return _CountingProxy(attr, self._entered)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self._entered.append(name)
            return attr(*args, **kwargs)

        return call


def test_guard_random_draws_come_in_blocks(monkeypatch):
    """The simulator's two per-event random consumers enter numpy once per
    ``BLOCK`` draws, and a ``round_robin`` / ``jitter=0`` run never does."""
    from math import ceil

    from repro.api.registry import get_app
    from repro.apps.dense_cg import CGParams
    from repro.runtime import RunConfig, Variant, run_with_recovery
    from repro.util import rng

    entered = {"scheduler": [], "network": []}
    draws = {"scheduler": 0, "network": 0}
    real_init = rng.RngStream.__init__

    def counting_init(self, master_seed, name):
        real_init(self, master_seed, name)
        if name in entered:
            self._gen = _CountingProxy(self._gen, entered[name])

    def counting(reader):
        def draw(self, arg):
            draws[self.name] += 1
            return reader(self, arg)

        return draw

    monkeypatch.setattr(rng.RngStream, "__init__", counting_init)
    for reader in ("next_below", "next_exponential"):
        monkeypatch.setattr(rng.RngStream, reader, counting(getattr(rng.RngStream, reader)))

    # The default configuration: sched_policy="random", jitter=20e-6.  The
    # run is long enough for the scheduler to draw more than one block:
    # only a collective's receive that must wait suspends a rank, so a CG
    # iteration takes few scheduler draws.
    out = run_with_recovery(
        get_app("dense_cg").build(CGParams(n=48, iterations=100)),
        RunConfig(nprocs=4, seed=3, variant=Variant.PIGGYBACK),
    )
    assert out.completed and out.restarts == 0
    assert draws["network"] >= out.network_messages > rng.BLOCK  # one per post
    assert draws["scheduler"] > rng.BLOCK
    for name, calls in entered.items():
        assert 0 < len(calls) <= ceil(draws[name] / rng.BLOCK) + 1, (
            f"{name}: {len(calls)} calls into numpy for {draws[name]} draws "
            f"({sorted(set(calls))}) - a per-event scalar draw is back"
        )

    for calls in entered.values():
        calls.clear()
    draws.update(scheduler=0, network=0)
    _guard_run(0.002)  # round_robin, jitter=0.0
    assert entered == {"scheduler": [], "network": []} and not any(draws.values())
