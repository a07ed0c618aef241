"""Application and library state saving (paper Section 5).

Stable storage (:class:`Storage`) is a facade over the tiered checkpoint
engine in :mod:`repro.ckpt` — backends, compression codecs, incremental
generations, retention and crash-consistent commit all live there.
"""

from repro.statesave.format import CheckpointData
from repro.statesave.globals_registry import (
    DEFAULT_REGISTRY,
    GlobalsRegistry,
    checkpointable_state,
)
from repro.statesave.storage import CommitRecord, Storage

__all__ = [
    "CheckpointData",
    "CommitRecord",
    "DEFAULT_REGISTRY",
    "GlobalsRegistry",
    "Storage",
    "checkpointable_state",
]
