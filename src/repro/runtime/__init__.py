"""Run orchestration: application context, variants, recovery driver."""

from repro.runtime.config import RunConfig, Variant
from repro.runtime.context import C3AppContext
from repro.runtime.driver import AttemptRecord, RunOutcome, run_with_recovery

__all__ = [
    "AttemptRecord",
    "C3AppContext",
    "RunConfig",
    "RunOutcome",
    "Variant",
    "run_with_recovery",
]
