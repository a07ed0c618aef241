"""Sample summaries, and ``--compare``: the bounds of ``BENCHMARK.json``
applied to two records."""

from __future__ import annotations

import statistics
from typing import Optional


def summarise(values: list[float]) -> dict:
    """Median with min / p25 / p75 / max and the sample count.

    Sample counts here are 5–25, so no percentile above the median is
    claimed; quartiles are ``statistics.quantiles(values, n=4)``.
    """
    if not values:
        return {"median": None, "min": None, "p25": None, "p75": None, "max": None, "n": 0}
    if len(values) == 1:
        p25 = p75 = values[0]
    else:
        p25, _, p75 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "min": min(values), "p25": p25, "p75": p75,
        "max": max(values), "n": len(values),
    }


def spread(summary: dict) -> Optional[float]:
    """Interquartile distance as a share of the median."""
    if not summary.get("median"):
        return None
    return (summary["p75"] - summary["p25"]) / summary["median"]


def verdict(a: dict, b: dict, bound: float, lower_is_better: bool) -> tuple[str, Optional[float]]:
    """``(status, relative change of the median from A to B)``.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``improved``: better by more than the bound, or B's quartiles lie
    wholly on the better side of A's.  Otherwise ``unresolved`` when
    either side's own spread is wider than the bound (the records cannot
    tell), else ``unchanged``.
    """
    if not a.get("median") or not b.get("median"):
        return "unresolved", None
    change = (b["median"] - a["median"]) / a["median"]
    worse = change if lower_is_better else -change
    if worse > bound:
        return "regressed", change
    apart = b["p75"] < a["p25"] if lower_is_better else b["p25"] > a["p75"]
    if worse < -bound or apart:
        return "improved", change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    return "unchanged", change


def _cell(summary: dict) -> str:
    if not summary.get("n"):
        return f"{'null':>12}{'':>24}"
    return f"{summary['median']:>12.6g}{summary['p25']:>12.6g}..{summary['p75']:<10.6g}"


def compare_records(a: dict, b: dict, spec: dict) -> int:
    """Print one row per end-to-end metric × workload; 1 if B is worse."""
    worse = False
    header = (f"{'workload':<22}{'metric':<20}{'A median':>12}{'A p25..p75':>24}"
              f"{'B median':>12}{'B p25..p75':>24}{'change':>9}  status")
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            continue
        for metric in spec["end_to_end"]:
            sa = wa["end_to_end"].get(metric["name"], {})
            sb = wb["end_to_end"].get(metric["name"], {})
            status, change = verdict(sa, sb, metric["bound"], metric["better"] == "lower")
            worse |= status == "regressed"
            shown = "" if change is None else f"{100 * change:+.1f}%"
            print(f"{workload:<22}{metric['name']:<20}{_cell(sa)}{_cell(sb)}{shown:>9}  {status}")
        drift = sorted(
            f"{run}.{fact}"
            for run in set(wa["exact"]) | set(wb["exact"])
            for fact in set(wa["exact"].get(run, {})) | set(wb["exact"].get(run, {}))
            if wa["exact"].get(run, {}).get(fact) != wb["exact"].get(run, {}).get(fact)
        )
        note = "bit-identical" if not drift else f"{len(drift)} differ: {', '.join(drift[:6])}"
        print(f"{workload:<22}exact facts: {note}")
        rate_a = wa["ops_failed"] / max(1, wa["ops_attempted"])
        rate_b = wb["ops_failed"] / max(1, wb["ops_attempted"])
        if rate_b > rate_a:
            worse = True
            print(f"{workload:<22}ops_failed/ops_attempted rose: "
                  f"{wa['ops_failed']}/{wa['ops_attempted']} -> "
                  f"{wb['ops_failed']}/{wb['ops_attempted']}")
    return 1 if worse else 0
