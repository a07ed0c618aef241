"""Shared low-level utilities: bit packing, serialization, RNG streams."""

from repro.util.intpack import MAX_MESSAGE_ID
from repro.util.rng import RngStream, derive_seed
from repro.util.serialization import (
    FrameCorruptError,
    atomic_write_bytes,
    dumps_framed,
    loads_framed,
    read_frame,
    write_frame,
)

__all__ = [
    "MAX_MESSAGE_ID",
    "RngStream",
    "derive_seed",
    "FrameCorruptError",
    "atomic_write_bytes",
    "dumps_framed",
    "loads_framed",
    "read_frame",
    "write_frame",
]
