"""Shared helpers for the benchmark suite.

Every ``bench_fig8_*`` module measures one chart of the paper's Figure 8
with the four build variants of Section 6.2.  Benchmark-suite sizes are
scaled below the ``run_figure8.py`` sizes (the committed record is
``benchmarks/e2e``, see ``benchmarks/e2e/README.md``) so ``pytest
benchmarks/ --benchmark-only`` completes quickly; the shapes (who is more expensive,
how overhead moves with problem size) are asserted, not absolute times.
"""

import pytest

from repro.apps.workloads import DEFAULT_CHECKPOINT_INTERVAL
from repro.runtime.config import RunConfig


def bench_config(nprocs: int = 4, seed: int = 7) -> RunConfig:
    return RunConfig(
        nprocs=nprocs,
        seed=seed,
        checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
        detector_timeout=0.05,
    )


@pytest.fixture(scope="session")
def base_config():
    return bench_config()
