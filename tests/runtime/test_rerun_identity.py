"""Same seed, same run: every observable outcome is bit-reproducible.

Ranks are generators driven by one seeded scheduler, so a run is a pure
function of its config, failure schedule and seed.  This suite pins that
three ways, each by running the same thing twice and comparing:

1. the full V0-V3 x {laplace, dense_cg} sweep, failure-free and with a
   mid-run kill forcing detector + recovery, compared by
   ``RunOutcome.facts()`` (virtual time, network and storage counters,
   protocol counters, per-attempt records, a hash of the results);
2. the six pinned ``repro.chaos.regressions`` schedules, the nastiest
   interleavings this project has found, with verdicts compared
   field-for-field;
3. a traced run exported with ``repro.trace.to_jsonl`` (trace events
   carry only virtual time, so the exports must be identical strings).

It also checks the protocol's end-to-end promise on the same sweep: a
run that loses a rank and recovers returns the failure-free results.
"""

import pytest

from repro.api.registry import get_app
from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams
from repro.chaos.campaign import CampaignConfig, check_scenario
from repro.chaos.regressions import REGRESSION_SCENARIOS
from repro.runtime import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi import FailureSchedule
from repro.trace import TraceRecorder, to_jsonl

#: Small-but-real workloads: enough iterations to cross several
#: checkpoint intervals, small enough that the 2x sweep stays cheap.
APP_BUILDS = {
    "laplace": lambda: get_app("laplace").build(LaplaceParams(n=16, iterations=60)),
    "dense_cg": lambda: get_app("dense_cg").build(CGParams(n=48, iterations=30)),
}

VARIANTS = [Variant.UNMODIFIED, Variant.PIGGYBACK, Variant.NO_APP_STATE, Variant.FULL]

KILL_AT = 0.004


def _config(variant, seed=3):
    return RunConfig(
        nprocs=4,
        seed=seed,
        variant=variant,
        checkpoint_interval=0.002,
        detector_timeout=0.05,
    )


def _run(app, variant, kill, tracer=None):
    failures = FailureSchedule.single(time=kill, rank=1) if kill is not None else None
    return run_with_recovery(
        APP_BUILDS[app](), _config(variant), failures=failures, tracer=tracer
    )


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("app", sorted(APP_BUILDS))
@pytest.mark.parametrize("kill", [None, KILL_AT], ids=["clean", "killed"])
def test_rerun_is_bit_identical(app, variant, kill):
    facts = []
    for _ in range(2):
        out = _run(app, variant, kill)
        assert out.completed
        if kill is not None:
            assert out.restarts >= 1, "kill must force at least one restart"
        facts.append(out.facts())
    assert facts[0] == facts[1]


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
@pytest.mark.parametrize("app", sorted(APP_BUILDS))
def test_recovered_results_match_failure_free(app, variant):
    clean = _run(app, variant, None)
    killed = _run(app, variant, KILL_AT)
    assert clean.completed and killed.completed
    assert killed.restarts >= 1
    assert repr(killed.results) == repr(clean.results)


@pytest.mark.parametrize("name", sorted(REGRESSION_SCENARIOS))
def test_pinned_chaos_schedules_rerun_identically(name):
    """The pinned regression interleavings judge identically on a rerun."""
    a, b = (check_scenario(REGRESSION_SCENARIOS[name], CampaignConfig())
            for _ in range(2))
    for verdict in (a, b):
        assert verdict.ok, f"{name}: {verdict.violations}"
    assert (a.attempts, a.restarts, a.kills_fired, a.crashes_fired) == (
        b.attempts, b.restarts, b.kills_fired, b.crashes_fired
    )
    assert repr(a.virtual_time) == repr(b.virtual_time)
    assert a.checkpoints_committed == b.checkpoints_committed


def test_trace_export_byte_identical_across_reruns():
    """Same seed, same kill: the JSONL trace export is the same string."""
    exports = []
    for _ in range(2):
        tracer = TraceRecorder(capacity=None)  # unbounded: full export
        out = _run("laplace", Variant.FULL, KILL_AT, tracer=tracer)
        assert out.completed and out.restarts >= 1
        exports.append(to_jsonl(tracer.events))
    assert exports[0] == exports[1]
    assert exports[0].count("\n") > 100, "trace export looks empty"
