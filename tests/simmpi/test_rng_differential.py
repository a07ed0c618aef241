"""Whole runs: block-read streams against a scalar reference stream.

``Scheduler.pick_rank`` and ``Network.post`` take their random draws from
blocks (:meth:`RngStream.next_below` / :meth:`RngStream.next_exponential`).
The reference below is what they called before — one numpy scalar call per
draw — injected as ``scheduler.rng`` / ``network.rng``; every scheduling
decision and every delivery of a run must be the same under both.
``tests/util/test_rng.py`` compares the two draw by draw; this suite
compares what the simulator makes of them.
"""

import pytest

from repro.api.registry import get_app
from repro.apps.laplace import LaplaceParams
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM, FailureSchedule, SimConfig, Simulator
from repro.trace import TraceRecorder
from repro.util.rng import RngStream


class ScalarStream(RngStream):
    """The pre-block readers: numpy entered once per draw."""

    def next_below(self, n):
        return int(self._gen.integers(n))

    def next_exponential(self, scale):
        return float(self._gen.exponential(scale))


@pytest.fixture
def scalar_reference(monkeypatch):
    """Arm with ``scalar_reference()``: every ``Simulator`` built afterwards
    (each recovery attempt builds its own, from ``seed + attempt``) gets the
    scalar reference streams in place of its block-read ones."""
    built = Simulator.__init__

    def build_with_scalar_streams(sim, config, *args, **kwargs):
        built(sim, config, *args, **kwargs)
        sim.scheduler.rng = ScalarStream(config.seed, "scheduler")
        sim.network.rng = ScalarStream(config.seed, "network")

    def arm():
        monkeypatch.setattr(Simulator, "__init__", build_with_scalar_streams)

    return arm


def mixed_traffic(ctx):
    """Ring point-to-point on two tags plus a collective per round, so all
    three ordering disciplines have something to reorder."""
    comm, rank, size = ctx.comm, ctx.rank, ctx.size
    right, left = (rank + 1) % size, (rank - 1) % size
    acc = rank
    for step in range(6):
        yield from comm.co_send(acc, dest=right, tag=1)
        yield from comm.co_send(step, dest=right, tag=2)
        acc += (yield from comm.co_recv(source=left, tag=2)) + (yield from comm.co_recv(source=left, tag=1))
        acc = (yield from comm.co_allreduce(acc, SUM)) % 1009
    return acc


def _schedule_and_deliveries(tracer):
    events = tracer.events
    grants = [e.rank for e in events if e.category == "sched" and e.name == "grant"]
    deliveries = [
        (e.attempt, e.t, e.payload["source"], e.rank, e.payload["tag"])
        for e in events
        if e.category == "net" and e.name == "deliver"
    ]
    return grants, deliveries


def _observe_sim(nprocs, ordering, seed):
    tracer = TraceRecorder(capacity=None)
    config = SimConfig(nprocs=nprocs, seed=seed, ordering=ordering)
    result = Simulator(config, mixed_traffic, tracer=tracer).run()
    assert result.completed
    grants, deliveries = _schedule_and_deliveries(tracer)
    assert len(grants) == result.total_slices
    return grants, deliveries, result.virtual_time, result.total_slices, result.results


@pytest.mark.parametrize("ordering", ["per_tag_fifo", "fifo", "random"])
@pytest.mark.parametrize("nprocs", [2, 5, 16])
def test_block_reads_schedule_and_deliver_like_scalar_draws(
    nprocs, ordering, scalar_reference
):
    seeds = range(40, 45)
    observed = [_observe_sim(nprocs, ordering, seed) for seed in seeds]
    scalar_reference()
    for seed, block_read in zip(seeds, observed):
        reference = _observe_sim(nprocs, ordering, seed)
        for what, got, want in zip(
            ("sched/grant ranks", "net/deliver list", "virtual_time",
             "total_slices", "results"),
            block_read, reference,
        ):
            assert got == want, f"seed {seed}: {what} differ from the scalar reference"
    # The seeds do exercise the random policy: they schedule differently.
    assert len({tuple(grants) for grants, *_ in observed}) > 1


def _observe_recovery(seed):
    tracer = TraceRecorder(capacity=None)
    config = RunConfig(
        nprocs=4, seed=seed, variant=Variant.FULL,
        checkpoint_interval=0.002, detector_timeout=0.05,
    )
    app = get_app("laplace").build(LaplaceParams(n=16, iterations=60))
    out = run_with_recovery(
        app, config, failures=FailureSchedule.single(time=0.004, rank=1), tracer=tracer
    )
    assert out.completed and out.restarts >= 1, "the kill must force a restart"
    grants, deliveries = _schedule_and_deliveries(tracer)
    return (
        grants, deliveries, [a.virtual_time for a in out.attempts],
        out.network_messages, out.results,
    )


@pytest.mark.parametrize("seed", [3, 8])
def test_recovery_attempts_build_fresh_streams_that_agree_too(seed, scalar_reference):
    """A mid-run kill: attempt 1 draws from new streams seeded ``seed + 1``,
    restores from a checkpoint and replays — all of it as under scalar
    draws, in every attempt."""
    block_read = _observe_recovery(seed)
    scalar_reference()
    reference = _observe_recovery(seed)
    for what, got, want in zip(
        ("sched/grant ranks", "net/deliver list", "per-attempt virtual_time",
         "network_messages", "results"),
        block_read, reference,
    ):
        assert got == want, f"{what} differ from the scalar reference"
    assert {attempt for attempt, *_ in block_read[1]} >= {0, 1}
