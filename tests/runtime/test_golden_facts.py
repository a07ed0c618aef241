"""Golden exact facts: every deterministic observable, pinned per seed.

Host-time work (dispatch, sizing, matching) may be restructured freely
as long as no *simulated* fact moves.  This suite pins those facts for
the four gallery apps under V0-V3, one mid-run-kill recovery each, and a
16-rank no-RNG laplace (the shape of the benchmark's ``laplace_scale64``
workload): results, virtual time, message/byte counts, committed waves,
stored bytes, per-attempt records with stage call counts, the number of
scheduling slices, and the SHA-256 of the full ``repro.trace`` JSONL
export (which orders every grant, block, wake, delivery, protocol and
store event on the virtual clock).

The goldens in ``golden_facts.json`` are regenerated only on purpose,
when a change is *meant* to move a simulated fact::

    PYTHONPATH=src python tests/runtime/test_golden_facts.py --regen
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api.registry import get_app
from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams
from repro.apps.neurosys import NeurosysParams
from repro.apps.stencil3d import Stencil3DParams
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import FailureSchedule
from repro.trace import TraceRecorder, to_jsonl

GOLDEN_PATH = Path(__file__).with_name("golden_facts.json")

#: ``app -> (params, kill time)``; each kill lands after the first commit
#: and before the run's end for the seed used here.
APPS = {
    "laplace": (LaplaceParams(n=16, iterations=60), 0.004),
    "dense_cg": (CGParams(n=48, iterations=30), 0.009),
    "neurosys": (NeurosysParams(grid=8, iterations=12), 0.010),
    "stencil3d": (Stencil3DParams(n=12, iterations=48), 0.005),
}
VARIANTS = {
    "V0": Variant.UNMODIFIED,
    "V1": Variant.PIGGYBACK,
    "V2": Variant.NO_APP_STATE,
    "V3": Variant.FULL,
}
NO_RNG = {"sched_policy": "round_robin", "jitter": 0.0}


def _cases():
    """``case id -> (app, params, nprocs, variant, kill, config extras)``."""
    cases = {}
    for app, (params, kill) in APPS.items():
        for label, variant in VARIANTS.items():
            cases[f"{app}-{label}"] = (app, params, 4, variant, None, {})
        cases[f"{app}-recovery"] = (app, params, 4, Variant.FULL, (kill, 1), {})
    scale = LaplaceParams(n=32, iterations=60)
    cases["laplace16-V3"] = ("laplace", scale, 16, Variant.FULL, None, NO_RNG)
    cases["laplace16-recovery"] = ("laplace", scale, 16, Variant.FULL, (0.025, 7), NO_RNG)
    return cases


CASES = _cases()


def _fingerprint(out):
    """Every deterministic observable of a run (wall clock excluded)."""
    attempts = [
        (
            a.index,
            a.completed,
            a.failed,
            a.dead_ranks,
            a.started_from_epoch,
            repr(a.virtual_time),
            repr(a.kills),
            repr(a.checkpoint_crashes),
            repr(sorted(a.stage_calls.items())),
        )
        for a in out.attempts
    ]
    return [
        repr(out.results),
        repr(out.total_virtual_time),
        out.network_bytes,
        out.network_messages,
        out.checkpoints_committed,
        out.storage_bytes_written,
        repr(attempts),
    ]


def observe(case_id):
    app, params, nprocs, variant, kill, extra = CASES[case_id]
    config = RunConfig(
        nprocs=nprocs, seed=3, variant=variant,
        checkpoint_interval=0.002, detector_timeout=0.05, **extra,
    )
    failures = None
    if kill is not None:
        failures = FailureSchedule.single(time=kill[0], rank=kill[1])
    tracer = TraceRecorder(capacity=None)
    out = run_with_recovery(
        get_app(app).build(params), config, failures=failures, tracer=tracer
    )
    assert out.completed
    if kill is not None:
        assert out.restarts >= 1, "the kill must force a restart"
        assert out.attempts[1].started_from_epoch is not None, (
            "recovery must start from a committed epoch"
        )
    events = tracer.events
    return {
        "fingerprint": _fingerprint(out),
        "total_slices": sum(
            1 for e in events if e.category == "sched" and e.name == "grant"
        ),
        "trace_sha256": hashlib.sha256(to_jsonl(events).encode()).hexdigest(),
    }


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_exact_facts_match_golden(case_id):
    golden = json.loads(GOLDEN_PATH.read_text())
    observed = observe(case_id)
    expected = golden[case_id]
    for key in ("fingerprint", "total_slices", "trace_sha256"):
        assert observed[key] == expected[key], f"{case_id}: {key} moved"


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    GOLDEN_PATH.write_text(
        json.dumps({c: observe(c) for c in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {len(CASES)} goldens to {GOLDEN_PATH}")
