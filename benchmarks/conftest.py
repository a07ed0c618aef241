"""Shared helpers for the benchmark suite.

``bench_config`` is the scaled run configuration of the pytest-benchmark
modules.  The committed four-variant record is ``benchmarks/e2e`` (see
``benchmarks/e2e/README.md``); the suite here asserts mechanisms, not
absolute times.
"""

from repro.apps.workloads import DEFAULT_CHECKPOINT_INTERVAL
from repro.runtime.config import RunConfig


def bench_config(nprocs: int = 4, seed: int = 7) -> RunConfig:
    return RunConfig(
        nprocs=nprocs,
        seed=seed,
        checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
        detector_timeout=0.05,
    )
