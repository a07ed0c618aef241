"""Golden exact facts: every deterministic observable, pinned per seed.

Host-time work (dispatch, sizing, matching) may be restructured freely
as long as no *simulated* fact moves.  This suite pins those facts for
the four gallery apps under V0-V3, one mid-run-kill recovery each, and a
16-rank no-RNG laplace (the shape of the benchmark's ``laplace_scale64``
workload): every key of ``RunOutcome.facts()`` (a hash of the results,
virtual time, message/byte counts, committed waves, stored bytes,
protocol counters, per-attempt records with stage call counts), the
number of scheduling slices, and the SHA-256 of the full ``repro.trace``
JSONL export (which orders every grant, block, wake, delivery, protocol
and store event on the virtual clock).

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


def run_case(case_id, tracer=None):
    """One run of ``case_id``; a kill must force a restart from a committed
    epoch."""
    app, params, nprocs, variant, kill, extra = CASES[case_id]
    config = RunConfig(
        nprocs=nprocs, seed=3, variant=variant,
        checkpoint_interval=0.002, detector_timeout=0.05, **extra,
    )
    failures = None
    if kill is not None:
        failures = FailureSchedule.single(time=kill[0], rank=kill[1])
    out = run_with_recovery(
        get_app(app).build(params), config, failures=failures, tracer=tracer
    )
    assert out.completed
    if kill is not None:
        assert out.restarts >= 1, "the kill must force a restart"
        assert out.attempts[1].started_from_epoch is not None, (
            "recovery must start from a committed epoch"
        )
    return out


def observe(case_id):
    tracer = TraceRecorder(capacity=None)
    out = run_case(case_id, tracer)
    events = tracer.events
    return {
        "facts": out.facts(),
        "total_slices": sum(
            1 for e in events if e.category == "sched" and e.name == "grant"
        ),
        "trace_sha256": hashlib.sha256(to_jsonl(events).encode()).hexdigest(),
    }


def moved_facts(observed, expected):
    """One line per fact that differs, named by its key, with the golden and
    the observed value; a key only one side has reads ``absent`` on the
    other."""
    old, new = ({**row["facts"], "total_slices": row["total_slices"],
                 "trace_sha256": row["trace_sha256"]} for row in (expected, observed))
    return [
        f"{key} moved: golden {old.get(key, 'absent')!r}, "
        f"observed {new.get(key, 'absent')!r}"
        for key in sorted(old.keys() | new.keys())
        if key not in old or key not in new or old[key] != new[key]
    ]


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_exact_facts_match_golden(case_id):
    golden = json.loads(GOLDEN_PATH.read_text())
    moved = moved_facts(observe(case_id), golden[case_id])
    assert not moved, f"{case_id}: " + "; ".join(moved)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_untraced_run_matches_golden_facts(case_id):
    """The goldens are recorded traced; a run without a recorder (the
    benchmark's and every user's) reaches the same facts."""
    golden = json.loads(GOLDEN_PATH.read_text())[case_id]
    observed = {**golden, "facts": run_case(case_id).facts()}
    moved = moved_facts(observed, golden)
    assert not moved, f"{case_id} untraced: " + "; ".join(moved)


def test_a_moved_fact_is_named_with_both_values():
    expected = {
        "facts": {"virtual_s": 0.5, "stored_bytes": 300},
        "total_slices": 7,
        "trace_sha256": "a",
    }
    observed = {**expected, "facts": {"virtual_s": 0.5, "stored_bytes": 200}}
    assert moved_facts(observed, expected) == [
        "stored_bytes moved: golden 300, observed 200"
    ]
    longer = {**expected, "facts": {**expected["facts"], "waves": 1}, "total_slices": 8}
    assert moved_facts(longer, expected) == [
        "total_slices moved: golden 7, observed 8",
        "waves moved: golden 'absent', observed 1",
    ]


def test_golden_covers_exactly_the_cases():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    GOLDEN_PATH.write_text(
        json.dumps({c: observe(c) for c in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {len(CASES)} goldens to {GOLDEN_PATH}")
