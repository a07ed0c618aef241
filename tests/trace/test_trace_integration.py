"""End-to-end observability: traced recovery runs, deadlock diagnostics,
chaos flight recorder.

Carries the PR's two required integration properties: multi-attempt
``stage_totals()`` sums without double-counting, and same-seed traced
runs export byte-identical traces.
"""

import json

import pytest

from repro.api.registry import get_app
from repro.apps.laplace import LaplaceParams
from repro.chaos.campaign import ScenarioVerdict, _capture_flight, default_base_config
from repro.chaos.scenario import ChaosScenario, KillSpec
from repro.errors import DeadlockError
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi.failures import FailureSchedule
from repro.simmpi.simulator import SimConfig, Simulator
from repro.trace import TraceRecorder, to_chrome, to_jsonl

PARAMS = LaplaceParams(n=16, iterations=60)


def traced_killed_run(seed=0, trace=True):
    cfg = RunConfig(
        nprocs=4,
        variant=Variant.FULL,
        seed=seed,
        checkpoint_interval=0.0015,
        detector_timeout=0.02,
        trace=trace,
        trace_buffer=None,  # unbounded: full export, nothing dropped
    )
    return run_with_recovery(
        get_app("laplace").build(PARAMS),
        cfg,
        failures=FailureSchedule.single(time=0.004, rank=1),
    )


@pytest.fixture(scope="module")
def outcome():
    out = traced_killed_run()
    assert len(out.attempts) == 2, "kill at t=0.004 must force one restart"
    return out


# --------------------------------------------------------------------- #
# Required property 1: stage_totals across multi-attempt recovery runs.
# --------------------------------------------------------------------- #


def test_stage_totals_sums_attempts_without_double_counting(outcome):
    totals = outcome.stage_totals()
    assert totals, "V3 pipeline must dispatch into named stages"
    # Every attempt carries its own stage accounting...
    per_attempt = [rec.stage_calls for rec in outcome.attempts]
    assert all(per_attempt)
    # ...and the totals are exactly their sum: nothing dropped, nothing
    # counted twice.
    for name, entry in totals.items():
        manual = sum(calls.get(name, 0) for calls in per_attempt)
        assert entry["calls"] == manual
    # The sum is strictly more than the final attempt alone (the replayed
    # attempt re-dispatches), so totals genuinely span attempts.
    send_like = max(totals, key=lambda n: totals[n]["calls"])
    assert totals[send_like]["calls"] > per_attempt[-1].get(send_like, 0)


# --------------------------------------------------------------------- #
# Required property 2: same seed => byte-identical exported traces.
# --------------------------------------------------------------------- #


def test_same_seed_exports_byte_identical_traces(outcome):
    again = traced_killed_run()
    a = to_jsonl(outcome.trace.events)
    b = to_jsonl(again.trace.events)
    assert a == b
    dump = lambda doc: json.dumps(doc, sort_keys=True)  # noqa: E731
    assert dump(to_chrome(outcome.trace.events)) == dump(to_chrome(again.trace.events))


def test_different_seed_diverges(outcome):
    other = traced_killed_run(seed=1)
    assert to_jsonl(outcome.trace.events) != to_jsonl(other.trace.events)


# --------------------------------------------------------------------- #
# Recovery story on the global virtual timeline.
# --------------------------------------------------------------------- #


def test_recovery_event_ordering(outcome):
    events = outcome.trace.events

    def first(cat, name):
        for ev in events:
            if ev.category == cat and ev.name == name:
                return ev
        raise AssertionError(f"missing event {cat}.{name}")

    kill = first("fail", "kill")
    detect = first("detect", "suspect")
    restore = first("proto", "restore")
    replay_end = first("proto", "replay_end")
    assert kill.t <= detect.t <= restore.t <= replay_end.t
    # The kill happened in attempt 0; restore/replay belong to attempt 1,
    # yet their global timestamps still advance (cross-attempt offset).
    assert kill.attempt == 0 and restore.attempt == 1
    # Attempt boundaries are themselves events.
    begins = [ev for ev in events if ev.name == "attempt_begin"]
    assert len(begins) == 2
    assert begins[1].t >= begins[0].t


def test_trace_counts_stay_out_of_facts(outcome):
    assert len(outcome.trace) == len(outcome.trace.events) > 0
    assert outcome.trace.dropped == 0
    untraced = traced_killed_run(trace=False)
    assert untraced.trace is None
    assert untraced.facts() == outcome.facts()


# --------------------------------------------------------------------- #
# Deadlock diagnostics embed each blocked proc's recent events.
# --------------------------------------------------------------------- #


def test_deadlock_message_includes_recent_trace_events():
    def both_recv_first(ctx):
        return (yield from ctx.comm.co_recv(source=(ctx.rank + 1) % 2, tag=1))

    recorder = TraceRecorder()
    sim = Simulator(SimConfig(nprocs=2, seed=0), both_recv_first, tracer=recorder)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "recent:" in message
    assert "sched." in message  # the tail renders event short() forms


def test_deadlock_message_without_tracer_still_describes():
    def both_recv_first(ctx):
        return (yield from ctx.comm.co_recv(source=(ctx.rank + 1) % 2, tag=1))

    sim = Simulator(SimConfig(nprocs=2, seed=0), both_recv_first)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert "recent:" not in str(excinfo.value)


# --------------------------------------------------------------------- #
# Chaos flight recorder.
# --------------------------------------------------------------------- #


def test_chaos_flight_capture_has_per_rank_tails():
    scenario = ChaosScenario(
        name="flight-test",
        kind="single_kill",
        app="laplace",
        variant="full",
        seed=3,
        nprocs=3,
        kills=(KillSpec(frac=0.5, rank=1),),
    )
    cfg = scenario.config(default_base_config())
    flight = _capture_flight(scenario, cfg, PARAMS, horizon=0.01)
    assert flight is not None
    assert "sim" in flight
    assert any(key.isdigit() for key in flight)
    for tail in flight.values():
        assert tail and all("t" in ev and "name" in ev for ev in tail)
    # JSON-safe end to end (it is embedded in campaign reports).
    json.dumps(flight)


def test_verdict_to_dict_embeds_flight():
    scenario = ChaosScenario(
        name="x", kind="single_kill", app="laplace", variant="full",
        seed=0, nprocs=2,
    )
    verdict = ScenarioVerdict(scenario=scenario, ok=False)
    assert "flight" not in verdict.to_dict()
    verdict.flight = {"0": [{"t": 0.0, "name": "kill"}]}
    assert verdict.to_dict()["flight"] == verdict.flight
