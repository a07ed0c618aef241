"""Rendering of Figure-8 charts and the overhead table as text.

The paper presents three bar charts (running time per problem size, four
bars each, annotated with application-state size).  ``render_chart``
produces the same information as an aligned text table plus a normalised
overhead summary (the committed record of the four-variant experiment is
the one ``benchmarks/e2e/README.md`` describes).
"""

from __future__ import annotations

from repro.bench.harness import ChartResult, PointResult
from repro.runtime.config import Variant

_VARIANT_SHORT = {
    Variant.UNMODIFIED: "unmodified",
    Variant.PIGGYBACK: "piggyback",
    Variant.NO_APP_STATE: "no-app-state",
    Variant.FULL: "full-ckpt",
}

_PAPER_TITLES = {
    "dense_cg": "Dense Conjugate Gradient",
    "laplace": "Laplace Solver",
    "neurosys": "Neurosys",
}


def render_point(result: PointResult) -> list[str]:
    lines = []
    base = result.baseline
    for variant, m in result.measurements.items():
        overhead = "" if variant is Variant.UNMODIFIED else (
            f"  (+{m.overhead_pct(base):.1f}%)"
            if m.overhead_pct(base) >= 0
            else f"  ({m.overhead_pct(base):.1f}%)"
        )
        extras = ""
        if m.checkpoints_committed:
            extras = (
                f"  ckpts={m.checkpoints_committed}"
                f" stored={_fmt_bytes(m.storage_bytes)}"
            )
        lines.append(
            f"    {_VARIANT_SHORT[variant]:<13} {m.wall_seconds*1e3:9.1f} ms"
            f"{overhead}{extras}"
        )
    return lines


def render_chart(chart: ChartResult) -> str:
    title = _PAPER_TITLES.get(chart.app, chart.app)
    out = [f"=== Figure 8: {title} ===", ""]
    for result in chart.points:
        out.append(
            f"  {result.point.label}"
            f"  [paper app-state: {result.point.paper_state};"
            f" scaled params: {result.point.params}]"
        )
        out.extend(render_point(result))
        out.append("")
    return "\n".join(out)


def render_overhead_table(charts: list[ChartResult]) -> str:
    """The Section 6.2 in-text overhead summary, one row per (app, size)."""
    header = (
        f"{'application':<12} {'size':<12} "
        f"{'piggyback%':>11} {'no-app-state%':>14} {'full%':>8}"
    )
    rows = [header, "-" * len(header)]
    for chart in charts:
        for result in chart.points:
            ov = result.overheads()
            rows.append(
                f"{chart.app:<12} {result.point.label:<12} "
                f"{ov.get(Variant.PIGGYBACK, 0.0):>10.1f} "
                f"{ov.get(Variant.NO_APP_STATE, 0.0):>14.1f} "
                f"{ov.get(Variant.FULL, 0.0):>8.1f}"
            )
    return "\n".join(rows)


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}MB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}KB"
    return f"{n}B"
