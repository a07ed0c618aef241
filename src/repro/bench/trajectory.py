"""Bench-trajectory diffing: the CI perf gate over ``BENCH_*.json``.

A trajectory file (written by :class:`repro.farm.bench.BenchRecorder`)
accumulates one record per campaign — conventionally a ``cold`` record
(cache being populated) and a ``warm`` record (cache being served) per CI
run.  This module compares trajectories:

* **within one file** — the newest ``warm`` record must reach a minimum
  cache-hit rate (a cold-performing warm run means the cache broke);
* **across two files** — the newest record per label in the current file
  must not regress wall time against the same label in a baseline file
  (the previous CI run's published artifact) beyond a tolerance.

Wall-clock comparisons are inherently noisy across CI hosts, so the
default tolerance is generous (+100%); the gate exists to catch
order-of-magnitude regressions (a cache that stopped hitting, a sweep
that started executing every cell twice), not 5% drift.

Records are read through the unified ``repro.metrics/1`` snapshot when
present (``record["metrics"]``), falling back to the flat legacy keys.

CLI::

    python -m repro.bench.trajectory BENCH_5.json \\
        --against prior/BENCH_5.json --allow-missing-baseline \\
        --min-warm-hit-rate 0.9 --max-wall-regression 1.0

Exit status: 0 when every check passes, 1 on a regression, 2 on unusable
input (missing/empty current trajectory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.trace.metrics import snapshot_get

#: Default ceiling on wall-time growth vs the baseline record (fraction:
#: 1.0 allows up to 2x).  Cross-host CI timing is noisy; this is a
#: catastrophe gate, not a microbenchmark.
DEFAULT_MAX_WALL_REGRESSION = 1.0

#: Default floor on the newest warm record's cache-hit rate.
DEFAULT_MIN_WARM_HIT_RATE = 0.9


def _metric(record: Dict[str, Any], kind: str, name: str, flat_key: str) -> Optional[float]:
    """Read one number from a bench record: snapshot first, flat key second."""
    snap = record.get("metrics")
    if isinstance(snap, dict):
        value = snapshot_get(snap, kind, name)
        if value is not None:
            return value["sum"] if isinstance(value, dict) else float(value)
    value = record.get(flat_key)
    return float(value) if value is not None else None


def record_wall_seconds(record: Dict[str, Any]) -> Optional[float]:
    return _metric(record, "histograms", "farm.wall_seconds", "wall_seconds")


def record_hit_rate(record: Dict[str, Any]) -> Optional[float]:
    return _metric(record, "gauges", "farm.hit_rate", "hit_rate")


def load_records(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    records = doc.get("records", [])
    if not isinstance(records, list):
        raise ValueError(f"{path}: 'records' is not a list")
    return records


def newest_by_label(records: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Last record per label, in file (append) order."""
    out: Dict[str, Dict[str, Any]] = {}
    for record in records:
        label = record.get("label")
        if isinstance(label, str):
            out[label] = record
    return out


def check_warm_hit_rate(
    records: Sequence[Dict[str, Any]],
    *,
    warm_label: str = "warm",
    min_hit_rate: float = DEFAULT_MIN_WARM_HIT_RATE,
) -> List[str]:
    """The within-file check: the newest warm record must hit the cache."""
    warm = newest_by_label(records).get(warm_label)
    if warm is None:
        return [f"no record labelled {warm_label!r} in trajectory"]
    rate = record_hit_rate(warm)
    if rate is None:
        return [f"warm record {warm_label!r} carries no hit rate"]
    if rate < min_hit_rate:
        return [
            f"warm cache-hit rate regressed: {rate:.1%} < required "
            f"{min_hit_rate:.1%} (label {warm_label!r})"
        ]
    return []


def compare_trajectories(
    current: Sequence[Dict[str, Any]],
    baseline: Sequence[Dict[str, Any]],
    *,
    max_wall_regression: float = DEFAULT_MAX_WALL_REGRESSION,
) -> List[str]:
    """Cross-file check: per-label wall time must not blow past baseline.

    Labels present only on one side are ignored (new benchmarks appear,
    old ones retire); a label must exist in both files to be compared.
    """
    problems: List[str] = []
    current_by = newest_by_label(current)
    baseline_by = newest_by_label(baseline)
    for label in sorted(set(current_by) & set(baseline_by)):
        now = record_wall_seconds(current_by[label])
        then = record_wall_seconds(baseline_by[label])
        if now is None or then is None or then <= 0:
            continue
        growth = (now - then) / then
        if growth > max_wall_regression:
            problems.append(
                f"wall-time regression for {label!r}: {then:.2f}s -> {now:.2f}s "
                f"(+{growth:.0%}, allowed +{max_wall_regression:.0%})"
            )
    return problems


# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="Diff bench trajectories; fail on perf regressions.",
    )
    parser.add_argument("current", help="current BENCH_*.json trajectory")
    parser.add_argument(
        "--against", default=None, metavar="BASELINE",
        help="baseline trajectory (e.g. the previous CI run's artifact)",
    )
    parser.add_argument(
        "--allow-missing-baseline", action="store_true",
        help="warn instead of failing when --against does not exist "
             "(first run on a branch has no prior artifact)",
    )
    parser.add_argument(
        "--max-wall-regression", type=float, default=DEFAULT_MAX_WALL_REGRESSION,
        help="allowed per-label wall-time growth vs baseline "
             f"(fraction; default {DEFAULT_MAX_WALL_REGRESSION})",
    )
    parser.add_argument(
        "--min-warm-hit-rate", type=float, default=DEFAULT_MIN_WARM_HIT_RATE,
        help="required cache-hit rate on the newest warm record "
             f"(default {DEFAULT_MIN_WARM_HIT_RATE})",
    )
    parser.add_argument(
        "--warm-label", default="warm", help="label of the warm record"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        current = load_records(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read current trajectory: {exc}", file=sys.stderr)
        return 2
    if not current:
        print(f"{args.current}: empty trajectory", file=sys.stderr)
        return 2

    problems = check_warm_hit_rate(
        current, warm_label=args.warm_label, min_hit_rate=args.min_warm_hit_rate
    )

    if args.against is not None:
        if not os.path.exists(args.against):
            message = f"baseline trajectory {args.against!r} not found"
            if args.allow_missing_baseline:
                print(f"warning: {message}; skipping cross-file diff")
            else:
                print(message, file=sys.stderr)
                return 2
        else:
            try:
                baseline = load_records(args.against)
            except (ValueError, json.JSONDecodeError) as exc:
                print(f"cannot read baseline trajectory: {exc}", file=sys.stderr)
                return 2
            problems.extend(
                compare_trajectories(
                    current, baseline,
                    max_wall_regression=args.max_wall_regression,
                )
            )

    if problems:
        for problem in problems:
            print(f"BENCH REGRESSION: {problem}", file=sys.stderr)
        return 1
    labels = ", ".join(sorted(newest_by_label(current)))
    print(f"bench trajectory ok ({len(current)} records; labels: {labels})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
