"""Incremental snapshots: zero-copy, content-addressed chunking of a checkpoint.

A checkpoint is pickled by *one* pickler — the rank's whole state (stack
frames, heap, globals, protocol records) shares one memo, so aliasing
between objects survives restore (see :mod:`repro.util.serialization`) —
but it is not one byte string.  Protocol 5 lets every large contiguous
buffer (a numpy array's data) leave the stream *out of band* as a view of
live memory: a generation is an ordered list of **segments**, the in-band
stream first, then each buffer.  Each segment is cut on its own fixed-size
chunk boundaries into ``memoryview`` slices, each addressed by a digest of
its decoded bytes; a chunk already in the backend writes nothing, and only
a chunk that is actually new is ever copied.

Per-segment boundaries are what make fixed-size chunking dedup.  Scientific
state is dominated by in-place-mutated arrays of stable shape (the dense CG
matrix block, the Laplace grid).  Cut as one stream, every array's chunks
shift — and stop deduplicating — whenever anything pickled before it changes
length (a counter gaining a digit, a list growing); cut per segment, an
array's chunks start at its own byte 0 whatever the in-band stream does.
For dense CG the constant matrix block — the bulk of the paper's
8 MB–131 MB state — dedupes to zero bytes every wave, *provided it is at
least one chunk long*: a buffer under ``chunk_size`` stays in the in-band
stream (see :func:`capture_segments`) and is re-stored whenever the bytes
around it change.  At the repo benchmark's ``cg_collectives`` size (n=128
on 4 ranks) the block is 32 KB against the 64 KB default chunk, so it is
written again in every one of the run's 200 rank-checkpoints.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Iterator

#: Default chunk size: small enough that a partially-changed state saves
#: bytes, large enough that digest/lookup overhead stays negligible.
DEFAULT_CHUNK_SIZE = 64 * 1024


def chunk_digest(data: bytes | memoryview) -> str:
    """Content address of one chunk (computed over *decoded* bytes)."""
    return hashlib.blake2b(data, digest_size=20).hexdigest()


def capture_segments(obj: Any, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[memoryview]:
    """Pickle ``obj`` once; return the in-band stream, then every contiguous
    buffer of at least ``chunk_size`` bytes as a byte view of live memory.
    Smaller ones stay in the stream — a threshold, not a necessity: as a
    one-chunk segment an unchanged small buffer would dedup too, at the
    price of one chunk reference per small array.  The views alias
    ``obj``'s arrays — consume them before the application runs again."""
    buffers: list[memoryview] = []

    def in_band(buffer: pickle.PickleBuffer) -> bool:
        try:
            view = buffer.raw()
        except BufferError:  # neither C- nor Fortran-contiguous
            return True
        if view.nbytes < chunk_size:
            return True
        buffers.append(view)
        return False

    stream = pickle.dumps(obj, protocol=5, buffer_callback=in_band)
    return [memoryview(stream), *buffers]


def chunk_views(segment: memoryview, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[memoryview]:
    """``segment`` cut into fixed-size views (the last one may be short)."""
    for offset in range(0, len(segment), chunk_size):
        yield segment[offset : offset + chunk_size]


@dataclass
class DeltaStats:
    """What one generation's save actually moved."""

    chunks_written: int = 0
    chunks_reused: int = 0
    chunks_hashed: int = 0   # the rest inherited the previous generation's digest
    bytes_logical: int = 0   # decoded payload size
    bytes_stored: int = 0    # encoded bytes that hit the backend
