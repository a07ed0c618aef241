"""Large-rank-count smoke: kill + detect + recover.

A 256-rank (by default) Laplace run with a mid-run stopping fault: the
failure detector must suspect the victim and the recovery driver must
restart and complete the job.  The whole smoke is a few wall seconds, so
CI runs it on every push (the ``scale-smoke`` job).

The ok line names the epoch the final attempt restarted from and the
waves committed, so a restart from scratch (``started_from_epoch=None``)
is visible, and the per-stage dispatch counts (``stage_calls``, exact
simulated facts).  With ``--bench`` the same facts and the wall seconds
are stamped into a BENCH trajectory.

CLI::

    PYTHONPATH=src python benchmarks/scale_smoke.py --ranks 256 \\
        --bench BENCH_RANK_SCALING.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.api.registry import get_app
from repro.apps.laplace import LaplaceParams
from repro.farm.bench import BenchRecorder
from repro.farm.engine import FarmStats
from repro.runtime import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi import FailureSchedule


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ranks", type=int, default=256)
    parser.add_argument(
        "--bench", default=None, metavar="PATH",
        help="BENCH trajectory file to stamp with this run",
    )
    args = parser.parse_args(argv)
    n = args.ranks

    # round_robin + zero jitter: the deterministic no-RNG configuration
    # the rank-scaling benchmarks use, so wall numbers are comparable.
    cfg = RunConfig(
        nprocs=n, seed=3, variant=Variant.FULL,
        checkpoint_interval=0.02, detector_timeout=0.05,
        sched_policy="round_robin", jitter=0.0,
    )
    app = get_app("laplace").build(LaplaceParams(n=n, iterations=10))
    started = time.perf_counter()
    out = run_with_recovery(
        app, cfg, failures=FailureSchedule.single(time=0.03, rank=7)
    )
    wall = time.perf_counter() - started

    if not out.completed:
        print("scale smoke FAILED: run did not complete", file=sys.stderr)
        return 1
    if out.restarts < 1:
        print("scale smoke FAILED: kill forced no restart", file=sys.stderr)
        return 1

    stage_calls = {
        name: entry["calls"] for name, entry in sorted(out.stage_totals().items())
    }
    started_from_epoch = out.attempts[-1].started_from_epoch
    print(
        f"scale smoke ok: {n} ranks, {wall:.2f}s wall, "
        f"vt={out.total_virtual_time:.4f}, restarts={out.restarts}, "
        f"started_from_epoch={started_from_epoch}, "
        f"checkpoints_committed={out.checkpoints_committed}, "
        f"stage_calls={stage_calls}"
    )

    if args.bench:
        BenchRecorder(args.bench).record(
            f"scale_smoke.n{n}.recovery",
            FarmStats(cells=1, misses=1, executed=1, wall_seconds=wall),
            virtual_time=out.total_virtual_time,
            extra={
                "ranks": n,
                "restarts": out.restarts,
                "started_from_epoch": started_from_epoch,
                "checkpoints_committed": out.checkpoints_committed,
                "stage_calls": stage_calls,
            },
        )
        print(f"stamped scale_smoke.n{n}.recovery into {args.bench}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
