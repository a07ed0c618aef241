#!/usr/bin/env python3
"""A guided tour of the observability stack (:mod:`repro.trace`).

Runs the Laplace benchmark under the full V3 protocol, kills rank 1 a
few milliseconds in, and then tells the failure + recovery story three
ways from the single event stream the run produced:

1. a per-category **summary** of everything that happened;
2. the **recovery timeline** — kill, detection, restore, replay — as
   text, on the global virtual clock (monotone across the restart);
3. the **flight-recorder view**: each rank's last few events, the same
   tail a failing chaos scenario embeds in its report.

Everything is virtual-time only, so running this script twice prints
byte-identical timelines.  For the interactive version of the same
story, export a Chrome trace and load it in ui.perfetto.dev::

    repro-trace record --app laplace --variant V3 --kill 1@0.004 \\
        --chrome trace.json

Run:  python examples/trace_tour.py
"""

from repro.api.registry import get_app
from repro.apps.laplace import LaplaceParams
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi.failures import FailureSchedule
from repro.trace import render_timeline, summarize


def main() -> None:
    params = LaplaceParams(n=16, iterations=60)
    config = RunConfig(
        nprocs=4,
        variant=Variant.FULL,
        checkpoint_interval=0.0015,
        detector_timeout=0.02,
        trace=True,          # arm the event bus...
        trace_buffer=None,   # ...and keep every event (no ring bound)
    )
    print(f"laplace n={params.n}, {params.iterations} iterations, "
          f"{config.nprocs} ranks, V3, kill rank 1 at t=0.004")
    print()

    outcome = run_with_recovery(
        get_app("laplace").build(params),
        config,
        failures=FailureSchedule.single(time=0.004, rank=1),
    )
    events = outcome.trace.events

    print("== what happened, by category ==")
    print(summarize(events))
    print()

    print("== the recovery story (virtual time, monotone across restart) ==")
    print(render_timeline(events, categories=("fail", "detect", "recovery")))
    print()

    print("== checkpoint commits around the failure ==")
    print(render_timeline(events, limit=8, categories=("ckpt",)))
    print()

    print("== flight-recorder tails (what chaos reports embed) ==")
    for rank, tail in sorted(outcome.trace.flight_dump(per_rank=3).items()):
        print(f"  rank {rank}:")
        for ev in tail:
            print(f"    t={ev['t']:.6f} {ev['cat']}.{ev['name']}")
    print()

    print(f"run: {len(outcome.attempts)} attempts, "
          f"{outcome.checkpoints_committed} checkpoints committed, "
          f"{len(outcome.trace)} events recorded, "
          f"virtual time {outcome.total_virtual_time:.6f}s")
    assert outcome.completed and outcome.restarts == 1


if __name__ == "__main__":
    main()
