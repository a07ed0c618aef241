"""Experiment T-OVH: the Section 6.2 in-text overhead summary.

Runs a reduced version of all three Figure-8 charts and prints the
normalised overhead table (the numbers the paper quotes in prose: CG
14%→43%, Laplace ≤2.1%, Neurosys piggyback 160%→2.7%).  Run with ``-s`` to
see the table; ``benchmarks/e2e/README.md`` describes the committed record.
"""

import pytest

from repro.apps import dense_cg, laplace, neurosys
from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams
from repro.apps.neurosys import NeurosysParams
from repro.apps.workloads import WorkloadPoint
from repro.bench import measure_chart
from repro.bench.report import render_chart, render_overhead_table

from benchmarks.conftest import bench_config

REDUCED = {
    "dense_cg": (
        dense_cg.SPEC,
        (
            WorkloadPoint("dense_cg", "small", "-", CGParams(n=64, iterations=25)),
            WorkloadPoint("dense_cg", "large", "-", CGParams(n=160, iterations=25)),
        ),
    ),
    "laplace": (
        laplace.SPEC,
        (
            WorkloadPoint("laplace", "small", "-", LaplaceParams(n=64, iterations=50)),
            WorkloadPoint("laplace", "large", "-", LaplaceParams(n=160, iterations=50)),
        ),
    ),
    "neurosys": (
        neurosys.SPEC,
        (
            WorkloadPoint("neurosys", "small", "-", NeurosysParams(grid=4, iterations=25)),
            WorkloadPoint("neurosys", "large", "-", NeurosysParams(grid=16, iterations=25)),
        ),
    ),
}


@pytest.fixture(scope="module")
def charts():
    cfg = bench_config()
    return [
        measure_chart(build, app, points, cfg)
        for app, (build, points) in REDUCED.items()
    ]


def test_overhead_table_renders(benchmark, charts):
    def render():
        return render_overhead_table(charts)

    table = benchmark(render)
    print()
    print(table)
    for chart in charts:
        print()
        print(render_chart(chart))
    assert "dense_cg" in table and "neurosys" in table


def test_all_variants_same_answers(charts):
    """Instrumentation must never change what the application computes."""
    from repro.bench import verify_variants_agree

    for chart in charts:
        for point in chart.points:
            assert verify_variants_agree(point), (chart.app, point.point.label)


def test_checkpointing_variants_committed(charts):
    from repro.runtime.config import Variant

    for chart in charts:
        for point in chart.points:
            assert point.measurements[Variant.FULL].checkpoints_committed >= 1
            assert point.measurements[Variant.PIGGYBACK].checkpoints_committed == 0
