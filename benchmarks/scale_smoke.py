"""Large-rank-count smoke: kill + detect + restore from a committed wave.

A 256-rank Laplace run with a stopping fault placed after the first
checkpoint wave commits: the failure detector must suspect the victim,
and the recovery driver must restart from that committed epoch (not from
scratch) and complete the job.  The whole smoke is a few wall seconds, so
CI runs it on every push (the ``scale-smoke`` job).

The configuration is fixed.  A 256-rank wave lasts about 3 s of virtual
time, so the run is long enough (150 iterations) for the first wave to
commit before the kill at t = 3.0; a kill much later (t = 3.45) never
fires.  The check exits 1 when the run did not complete, the kill forced
no restart, nothing was committed, or the final attempt started from
scratch.  The ok line names the simulated time of each attempt, the
messages delivered, the epoch each attempt started from, the waves
committed and the per-stage dispatch counts, all read from
``RunOutcome.facts()`` (the run's exact simulated facts).

CLI::

    PYTHONPATH=src python benchmarks/scale_smoke.py
"""

from __future__ import annotations

import sys
import time

from repro.api.registry import get_app
from repro.apps.laplace import LaplaceParams
from repro.runtime import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi import FailureSchedule

RANKS = 256
ITERATIONS = 150
KILL_TIME = 3.0
KILL_RANK = 7


def main() -> int:
    # round_robin + zero jitter: the deterministic no-RNG configuration
    # the rank-scaling benchmarks use, so wall numbers are comparable.
    cfg = RunConfig(
        nprocs=RANKS, seed=3, variant=Variant.FULL,
        checkpoint_interval=0.02, detector_timeout=0.05,
        sched_policy="round_robin", jitter=0.0,
    )
    app = get_app("laplace").build(LaplaceParams(n=RANKS, iterations=ITERATIONS))
    started = time.perf_counter()
    out = run_with_recovery(
        app, cfg, failures=FailureSchedule.single(time=KILL_TIME, rank=KILL_RANK)
    )
    wall = time.perf_counter() - started

    facts = out.facts()
    attempts = range(facts["restarts"] + 1)
    attempt_vt = [round(facts[f"attempt{i}_virtual_s"], 4) for i in attempts]
    started_from = [facts[f"attempt{i}_from_epoch"] for i in attempts]
    stage_calls = {
        key[len("stage_calls."):]: calls
        for key, calls in sorted(facts.items()) if key.startswith("stage_calls.")
    }
    print(
        f"scale smoke: {RANKS} ranks, {wall:.2f}s wall, "
        f"vt={facts['virtual_s']:.4f} (per attempt {attempt_vt}), "
        f"messages={facts['messages']}, restarts={facts['restarts']}, "
        f"started_from_epoch={facts['restored_epoch']} (per attempt {started_from}), "
        f"checkpoints_committed={facts['waves']}, "
        f"stage_calls={stage_calls}"
    )
    problems = []
    if not out.completed:
        problems.append("run did not complete")
    if facts["restarts"] < 1:
        problems.append("kill forced no restart")
    if facts["waves"] < 1:
        problems.append("no checkpoint wave was committed")
    if facts["restored_epoch"] is None:
        problems.append("final attempt restarted from scratch")
    for problem in problems:
        print(f"scale smoke FAILED: {problem}", file=sys.stderr)
    if problems:
        return 1
    print("scale smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
