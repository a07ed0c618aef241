"""``python -m repro.chaos`` — run a chaos campaign from the command line.

Examples::

    # The CI smoke campaign: fixed seed, 50 scenarios, JSON report.
    python -m repro.chaos --seed 7 --count 50 --out chaos-report.json

    # A deeper overnight run over just the recovery-timing families.
    python -m repro.chaos --count 500 --kinds kill_during_recovery,detector_edge

    # Re-check the pinned regression schedules.
    python -m repro.chaos --regressions

Exit status is 0 when every scenario passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from repro.chaos.campaign import CampaignConfig, default_base_config, run_campaign
from repro.chaos.scenario import DEFAULT_VARIANTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Randomised multi-failure campaigns over the C3 protocol.",
    )
    parser.add_argument("--seed", type=int, default=7, help="campaign master seed")
    parser.add_argument("--count", type=int, default=50, help="number of scenarios")
    parser.add_argument(
        "--apps", default="laplace,dense_cg",
        help="comma-separated registered app names",
    )
    parser.add_argument(
        "--variants", default=",".join(DEFAULT_VARIANTS),
        help="comma-separated variant spellings (default: V1-V3)",
    )
    parser.add_argument(
        "--kinds", default=None,
        help="comma-separated scenario families to restrict to",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON campaign report here"
    )
    parser.add_argument(
        "--serial", action="store_true",
        help="run in-process (identical results; easier debugging)",
    )
    parser.add_argument(
        "--max-workers", type=int, default=None, help="worker-pool width"
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failing schedules unminimised",
    )
    parser.add_argument(
        "--regressions", action="store_true",
        help="run the pinned regression schedules instead of a generated campaign",
    )
    parser.add_argument(
        "--no-preflight", action="store_true",
        help="run the app matrix with the static-check gate off "
             "(base config check='off'; default 'error')",
    )
    parser.add_argument(
        "--farm-dir", default=None, metavar="DIR",
        help="execute through a repro.farm cache at DIR: unchanged cells "
             "are served from the cache, the rest execute and are cached",
    )
    return parser


def _run_regressions() -> int:
    from repro.chaos.regressions import REGRESSION_SCENARIOS, run_regressions

    verdicts = run_regressions()
    failed = [v for v in verdicts if not v.ok]
    print(
        f"{len(verdicts) - len(failed)}/{len(REGRESSION_SCENARIOS)} "
        "pinned regression schedules passed"
    )
    for verdict in failed:
        print(f"FAIL {verdict.scenario.name}: {verdict.scenario.describe()}")
        for violation in verdict.violations:
            print(f"  - {violation}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.regressions:
        return _run_regressions()
    config = CampaignConfig(
        master_seed=args.seed,
        count=args.count,
        apps=tuple(a for a in args.apps.split(",") if a),
        variants=tuple(v for v in args.variants.split(",") if v),
        kinds=(
            tuple(k for k in args.kinds.split(",") if k)
            if args.kinds is not None
            else None
        ),
        shrink_failures=not args.no_shrink,
        base_config=(
            replace(default_base_config(), check="off")
            if args.no_preflight
            else None
        ),
    )
    farm = None
    if args.farm_dir is not None:
        from repro.farm.engine import Farm

        farm = Farm(args.farm_dir)
    report = run_campaign(
        config, parallel=not args.serial, max_workers=args.max_workers,
        farm=farm,
    )
    print(report.summary())
    print(f"wall time: {report.wall_seconds:.1f}s")
    if farm is not None:
        stats = farm.total_stats
        print(
            f"farm: {stats.hits} cache hits / {stats.cells} cells "
            f"({stats.hit_rate:.1%}), {stats.executed} executed"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.out}")
    return 1 if report.failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
