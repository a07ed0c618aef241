"""Incremental snapshots: zero-copy, content-addressed chunking of a checkpoint.

A checkpoint is pickled by *one* pickler — the rank's whole state (stack
frames, heap, globals, protocol records) shares one memo, so aliasing
between objects survives restore (see :mod:`repro.util.serialization`) —
but it is not one byte string.  Protocol 5 lets every large contiguous
buffer (a numpy array's data) leave the stream *out of band* as a view of
live memory: a generation is an ordered list of **segments**, the in-band
stream first, then each buffer.  Each segment is cut on its own fixed-size
chunk boundaries into ``memoryview`` slices, each addressed by a digest of
its decoded bytes (:func:`chunk_digest`); a chunk already in the backend
writes nothing, and only a chunk that is actually new is ever stored.  The
store deflates the in-band stream before cutting it (pickle structure
compresses well) and cuts the buffers raw (:mod:`repro.ckpt.store`).

Per-segment boundaries are what make fixed-size chunking dedup.  Scientific
state is dominated by in-place-mutated arrays of stable shape (the dense CG
matrix block, the Laplace grid).  Cut as one stream, every array's chunks
shift — and stop deduplicating — whenever anything pickled before it changes
length (a counter gaining a digit, a list growing); cut per segment, an
array's chunks start at its own byte 0 whatever the in-band stream does.
For dense CG the constant matrix block — the bulk of the paper's
8 MB–131 MB state — dedupes to zero bytes every wave.

Which buffers are segments is one fixed rule: every contiguous buffer of at
least one filesystem block (:data:`SEGMENT_FLOOR`), a sub-chunk one being a
one-chunk segment; ``chunk_size`` only says how a segment is cut.  Strong
scaling shrinks a rank's arrays below any useful chunk size while they are
still the bulk of its state; below one block a separate backend object fills
a block and costs an atomic rename anyway — hence the floor.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, Iterator

#: Default chunk size: small enough that a partially-changed state saves
#: bytes, large enough that digest/lookup overhead stays negligible.
DEFAULT_CHUNK_SIZE = 64 * 1024

#: Smallest buffer that is a segment of its own: one filesystem block.
SEGMENT_FLOOR = 4096


def chunk_digest(data: bytes | memoryview) -> str:
    """Content address of one chunk (over *decoded* bytes): SHA-256 cut to
    160 bits.  SHA-256 runs on the CPU's SHA extensions at about twice
    BLAKE2b's speed, and is the manifest checksum's hash family; 40 hex
    characters keep chunk keys and manifests at their byte length.  A store
    addressed by the former BLAKE2b digest fails content verification on
    load (a :class:`~repro.errors.StorageError`): restart begins from scratch."""
    return hashlib.sha256(data).hexdigest()[:40]


def capture_segments(obj: Any) -> list[memoryview]:
    """Pickle ``obj`` once; return the in-band stream, then every contiguous
    buffer of at least :data:`SEGMENT_FLOOR` bytes as a byte view of live
    memory.  Smaller and non-contiguous ones stay in the stream.  The views
    alias ``obj``'s arrays — consume them before the application runs again."""
    buffers: list[memoryview] = []

    def in_band(buffer: pickle.PickleBuffer) -> bool:
        try:
            view = buffer.raw()
        except BufferError:  # neither C- nor Fortran-contiguous
            return True
        if view.nbytes < SEGMENT_FLOOR:
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
    bytes_logical: int = 0   # undeflated stream plus buffers: a flat pickle's size
    bytes_stored: int = 0    # encoded bytes that hit the backend
