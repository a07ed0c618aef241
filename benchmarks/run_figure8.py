#!/usr/bin/env python3
"""Regenerate the complete Figure 8 (all three charts, all sizes, four
variants) plus the Section-6.2 overhead table, at full scale.

This is the full-size version of the pytest benchmarks — run it directly:

    python benchmarks/run_figure8.py [--repeats N]

Output is the text form of the paper's three bar charts.  It is committed
nowhere: the four-variant record of this repo is ``benchmarks/e2e``
(see ``benchmarks/e2e/README.md``).
"""

import argparse
import sys
import time

from repro.apps import dense_cg, laplace, neurosys
from repro.apps.workloads import (
    DEFAULT_CHECKPOINT_INTERVAL,
    DENSE_CG_POINTS,
    LAPLACE_POINTS,
    NEUROSYS_POINTS,
)
from repro.bench import measure_chart, render_chart, render_overhead_table, verify_variants_agree
from repro.runtime import RunConfig

CHARTS = (
    ("dense_cg", dense_cg.SPEC, DENSE_CG_POINTS),
    ("laplace", laplace.SPEC, LAPLACE_POINTS),
    ("neurosys", neurosys.SPEC, NEUROSYS_POINTS),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N per bar (default 3)")
    parser.add_argument("--nprocs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    config = RunConfig(
        nprocs=args.nprocs,
        seed=args.seed,
        checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
        detector_timeout=0.05,
    )
    print(f"# Figure 8 regeneration: nprocs={args.nprocs}, "
          f"checkpoint interval={DEFAULT_CHECKPOINT_INTERVAL*1e3:.0f} ms "
          f"(paper: 16 procs, 30 s), best of {args.repeats}")
    print()

    results = []
    for app, build, points in CHARTS:
        t0 = time.perf_counter()
        chart = measure_chart(build, app, points, config, repeats=args.repeats,
                              interval_fraction=0.1)
        for point in chart.points:
            if not verify_variants_agree(point):
                print(f"!! variant disagreement at {app}/{point.point.label}")
                return 1
        results.append(chart)
        print(render_chart(chart))
        print(f"  [chart measured in {time.perf_counter() - t0:.0f}s]")
        print()

    print("=== Overhead summary (Section 6.2 analogue) ===")
    print()
    print(render_overhead_table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
