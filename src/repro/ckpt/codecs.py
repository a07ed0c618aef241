"""Compression codecs for checkpoint chunks.

A codec transforms one chunk's bytes on the way to the backend and back.
A store names one of three: ``zlib`` (fast, moderate ratio; the
paper-era default for application-level checkpoint systems), ``lzma``
(slow, strong ratio; for archival tiers), or the identity codec ``none``
for hot paths where serialisation dominates and compression would only
add latency.

Chunk digests are computed over the *decoded* bytes, but chunks are keyed
per codec in the backend: a store re-opened with a different codec starts
a fresh dedup namespace (and can still read every generation written under
the old codec — each manifest remembers its own).
"""

from __future__ import annotations

import lzma
import zlib
from typing import Callable, Protocol

from repro.errors import ConfigError


class ChunkCodec(Protocol):
    """Byte-transform applied to each chunk before it reaches a backend."""

    name: str

    def encode(self, data: bytes) -> bytes: ...

    def decode(self, data: bytes) -> bytes: ...


class NullCodec:
    """Identity transform (the default: no CPU spent, no bytes saved)."""

    name = "none"

    def encode(self, data: bytes) -> bytes:
        return data

    def decode(self, data: bytes) -> bytes:
        return data


class ZlibCodec:
    """DEFLATE compression; level 6 balances ratio against checkpoint latency."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        self.level = level

    def encode(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decode(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class LzmaCodec:
    """LZMA compression; preset 1 keeps the checkpoint path tolerable."""

    name = "lzma"

    def __init__(self, preset: int = 1) -> None:
        self.preset = preset

    def encode(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decode(self, data: bytes) -> bytes:
        return lzma.decompress(data)


_CODECS: dict[str, Callable[[], ChunkCodec]] = {
    "none": NullCodec,
    "zlib": ZlibCodec,
    "lzma": LzmaCodec,
}


def get_chunk_codec(name: str) -> ChunkCodec:
    try:
        factory = _CODECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown checkpoint codec {name!r}; available: {sorted(_CODECS)}"
        ) from None
    return factory()
