"""Framed, checksummed serialization for checkpoint data.

Checkpoints are the system's only defence against failures, so their on-disk
format is defensive: every frame carries a magic tag, a format version, a
payload length, and a CRC32 of the payload.  A truncated or bit-flipped frame
is detected at read time and reported as :class:`FrameCorruptError` rather
than deserialised into garbage state.

Object graphs are serialised with :mod:`pickle` protocol 5.  Serialising a
rank's *entire* state with a single pickler is important for fidelity:
pickle's memo table preserves aliasing between stack variables, heap
objects and protocol state, which is the Python analogue of the paper's
"restore every object to the same virtual address so pointers remain valid"
strategy (Section 5.1.4).  A rank's checkpoint keeps the single pickler but
not the single byte string: :mod:`repro.ckpt.delta` takes array buffers out.
Checkpoint records are :class:`Positional`: values, no field names.  A
frame may hold a non-pickle payload (:func:`frame`), e.g. a manifest.
"""

from __future__ import annotations

import functools
import inspect
import io
import os
import pickle
import struct
import zlib
from typing import Any, BinaryIO

from repro.errors import StorageError

#: 8-byte magic prefix for checkpoint frames ("C3CKPT" + 2 format bytes).
MAGIC = b"C3CKPT"
FORMAT_VERSION = 1

_HEADER = struct.Struct(">6sHII")  # magic, version, payload length, crc32


class FrameCorruptError(StorageError):
    """A frame failed its magic/version/length/CRC validation."""


class Positional:
    """Pickles as its class plus its constructor arguments, each read from
    the same-named attribute (a dataclass's ``init`` fields): no field names
    are stored, and what ``__init__`` does not take is rebuilt, not stored."""

    __slots__ = ()

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        cls = type(self)
        return cls, tuple([getattr(self, name) for name in _arguments(cls)])


@functools.cache
def _arguments(cls: type) -> tuple[str, ...]:
    return tuple(inspect.signature(cls).parameters)


def frame(payload: bytes) -> bytes:
    """``payload`` behind a header of magic, version, length and CRC32."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, FORMAT_VERSION, len(payload), crc) + payload


def unframe(data: bytes) -> bytes:
    """Inverse of :func:`frame`, validating the frame first."""
    fh = io.BytesIO(data)
    payload = _read_payload(fh)
    remainder = fh.read()
    if remainder:
        raise FrameCorruptError(f"{len(remainder)} trailing bytes after frame")
    return payload


def dumps_framed(obj: Any) -> bytes:
    """Serialise ``obj`` into a single framed, checksummed byte string."""
    return frame(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def loads_framed(data: bytes) -> Any:
    """Inverse of :func:`dumps_framed`, validating the frame first."""
    return pickle.loads(unframe(data))


def write_frame(fh: BinaryIO, obj: Any) -> int:
    """Append one framed object to an open binary file; returns bytes written."""
    blob = dumps_framed(obj)
    fh.write(blob)
    return len(blob)


def read_frame(fh: BinaryIO) -> Any:
    """Read exactly one framed object from ``fh``.

    Raises :class:`EOFError` at a clean end of file and
    :class:`FrameCorruptError` on a short or invalid frame.
    """
    return pickle.loads(_read_payload(fh))


def _read_payload(fh: BinaryIO) -> bytes:
    header = fh.read(_HEADER.size)
    if not header:
        raise EOFError("no more frames")
    if len(header) < _HEADER.size:
        raise FrameCorruptError("truncated frame header")
    magic, version, length, crc = _HEADER.unpack(header)
    _check_header(magic, version)
    payload = fh.read(length)
    if len(payload) < length:
        raise FrameCorruptError(
            f"truncated frame payload: expected {length}, got {len(payload)}"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise FrameCorruptError("frame CRC mismatch")
    return payload


def _check_header(magic: bytes, version: int) -> None:
    if magic != MAGIC:
        raise FrameCorruptError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FrameCorruptError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})"
        )


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + fsync + rename).

    Stable storage must never expose a half-written checkpoint: a crash during
    the write leaves either the old file or no file, never a torn one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
