"""Experiment A-PROT: protocol micro-costs.

Per-operation throughput of the pieces that run on every message:
classification, counter bookkeeping, match logging, and the late-message
log — the constant factors behind the layer's per-message overhead —
plus the simulator's scheduling slice (a rank generator resumed once per
simulated MPI call) across rank counts, and the :mod:`repro.trace`
emission path (off, the single attribute read every hot path pays; on,
the full ring append).

The ``test_guard_*`` functions at the end are timing-free: they count
the host work the per-operation path must *not* do (pickling to size a
repeated control message, building a receive descriptor or a progress
generator for an idle poll, entering numpy for one random draw) and run
as plain assertions in CI.
"""

import os

import pytest

from repro.farm.bench import BenchRecorder
from repro.farm.engine import FarmStats
from repro.protocol.classify import classify_by_color, classify_by_epoch
from repro.protocol.logs import LateMessageLog, LateRecord, MatchLog, MatchRecord
from repro.protocol.state import ProtocolState
from repro.simmpi import SUM
from repro.simmpi.simulator import SimConfig, Simulator
from repro.trace import TraceRecorder

N = 5000


def test_classification_by_epoch(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        out = 0
        for i in range(N):
            out += classify_by_epoch(i % 3, 1).value != ""
        return out

    assert benchmark(run) == N


def test_classification_by_color(benchmark):
    benchmark.group = "protocol-micro"

    def run():
        out = 0
        for i in range(N):
            out += classify_by_color(i & 1, 4, bool(i & 2)).value != ""
        return out

    assert benchmark(run) == N


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
#
# Medians land in ``_SCALING_MEDIANS`` and, when ``RANK_SCALING_BENCH``
# names a trajectory file, ``test_rank_scaling_record`` stamps them into
# the BENCH trajectory (labels ``rank_scaling.<workload>.n<N>``).
# --------------------------------------------------------------------- #

RING_ITERS = 10

#: ``(workload, nprocs) -> median seconds`` from this process's run.
_SCALING_MEDIANS: dict = {}


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
    _SCALING_MEDIANS[(workload, nprocs)] = benchmark.stats.stats.median


def test_rank_scaling_record():
    """Stamp the rank-scaling medians into the BENCH trajectory.

    Opt-in (``RANK_SCALING_BENCH=<path>``): a plain test run must not
    grow the checked-in trajectory.  Runs after the parametrized cells
    above (pytest executes a module in definition order), so the medians
    dict is full whenever the benchmarks actually ran.
    """
    path = os.environ.get("RANK_SCALING_BENCH")
    if not path:
        pytest.skip("set RANK_SCALING_BENCH=<trajectory path> to record")
    if not _SCALING_MEDIANS:
        pytest.skip("no rank-scaling samples collected in this run")
    recorder = BenchRecorder(path)
    for (workload, nprocs), median in sorted(_SCALING_MEDIANS.items()):
        recorder.record(
            f"rank_scaling.{workload}.n{nprocs}",
            FarmStats(cells=1, misses=1, executed=1, wall_seconds=median),
            extra={"workload": workload, "ranks": nprocs},
        )


# --------------------------------------------------------------------- #
# Timing-free guards on the per-operation host path.
#
# A 16-rank laplace V2 run (waves, no application state; round-robin and
# zero jitter like the benchmark's 64-rank workload) with counting shims
# on the seams an idle or repeated operation must not reach.
# --------------------------------------------------------------------- #


def _guard_run(checkpoint_interval):
    from repro.api.registry import get_app
    from repro.apps.laplace import LaplaceParams
    from repro.runtime import RunConfig, Variant, run_with_recovery

    config = RunConfig(
        nprocs=16, seed=3, variant=Variant.NO_APP_STATE,
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


def test_guard_control_messages_are_sized_once_per_value(monkeypatch):
    """``sizeof`` pickles at most once per *distinct* control message."""
    import pickle
    from types import SimpleNamespace

    from repro.protocol.control import ControlMessage
    from repro.simmpi import datatypes, message

    dumps_calls = []
    shim = SimpleNamespace(
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        dumps=lambda obj, **kw: dumps_calls.append(obj) or pickle.dumps(obj, **kw),
    )
    sized = []

    def recording_sizeof(payload):
        if isinstance(payload, ControlMessage):
            sized.append(payload)
        return datatypes.sizeof(payload)

    monkeypatch.setattr(datatypes, "pickle", shim)
    monkeypatch.setattr(datatypes, "_PICKLED_SIZE", {})
    monkeypatch.setattr(message, "sizeof", recording_sizeof)
    out = _guard_run(0.002)
    assert out.checkpoints_committed >= 2
    # (a token still in flight when the last rank returns is sized, not handled)
    assert len(sized) >= _total(out, "control_messages") > 16 * 15
    assert 0 < len(dumps_calls) <= len(set(sized)) < len(sized)


def test_guard_receive_descriptors_only_for_application_receives(monkeypatch):
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


def test_guard_one_send_count_token_per_distinct_count(monkeypatch):
    """A local checkpoint builds one ``MySendCount`` per distinct count:
    at most 1 (the zero every silent peer is told) + the peers it sent to."""
    from repro.protocol.control import MySendCount
    from repro.protocol.state import ProtocolState

    bounds: dict[int, list[int]] = {}  # rank -> allowed tokens, per checkpoint
    built: dict[int, list[int]] = {}  # rank -> tokens built, per checkpoint
    real_transition = ProtocolState.epoch_transition
    real_init = MySendCount.__init__

    def transition(self):
        send_counts = real_transition(self)
        bounds.setdefault(self.rank, []).append(1 + len(send_counts))
        built.setdefault(self.rank, []).append(0)
        return send_counts

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built[self.sender][-1] += 1

    monkeypatch.setattr(ProtocolState, "epoch_transition", transition)
    monkeypatch.setattr(MySendCount, "__init__", counting_init)
    out = _guard_run(0.002)
    assert out.checkpoints_committed >= 2 and len(built) == 16
    for rank, counts in built.items():
        assert all(0 < n <= bound for n, bound in zip(counts, bounds[rank])), rank
    # laplace's 1-D stencil: a rank sends to at most two of its 15 peers
    assert max(max(b) for b in bounds.values()) <= 3


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

    # The default configuration: sched_policy="random", jitter=20e-6.
    out = run_with_recovery(
        get_app("dense_cg").build(CGParams(n=48, iterations=30)),
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
