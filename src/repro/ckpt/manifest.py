"""Per-generation manifests: the unit of crash-consistent publication.

A generation (one rank's checkpoint of one epoch) becomes visible only
when its manifest exists and validates.  The manifest names every chunk
of every segment (:mod:`repro.ckpt.delta`) by content address and carries
its own checksum over everything else it records, so three failure modes
are all detected at read time and reported as storage errors rather than
deserialised into garbage state:

* torn write — the crash happened before the manifest's atomic rename, so
  the manifest is simply absent and the previous generation is untouched;
* bit rot in a chunk — the chunk's digest no longer matches its address;
* bit rot (or tampering) in the manifest itself — the frame CRC or the
  manifest checksum fails (:class:`~repro.errors.ManifestCorruptError`).

On the backend a manifest is one frame (magic, version, length, CRC32)
around a fixed big-endian record of values: ``H`` stream and ``B`` codec
name lengths, ``H`` segment count, ``Q`` generation, ``I`` chunk_size,
``d`` created_at, ``Q`` stored_bytes, ``I`` reused_chunks; the UTF-8 names;
one ``I`` chunk count per segment; per chunk its raw 20-byte digest, ``I``
length and ``I`` stored length; and the raw SHA-256 of all of that.  A
payload that does not parse as exactly one record (a manifest pickled by
older code, say) raises :class:`~repro.errors.ManifestCorruptError`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field, replace
from itertools import chain, islice

from repro.errors import ManifestCorruptError
from repro.util.serialization import frame, unframe

_HEAD = struct.Struct(">HBHQIdQI")
_CHUNK = struct.Struct(">20sII")  # digest, length, stored length
_CHECKSUM = 32


@dataclass(frozen=True)
class ChunkRef:
    """One chunk of one segment of a generation."""

    digest: str         # content address of the decoded bytes (40 hex digits)
    length: int         # decoded size
    stored_length: int  # encoded size as written to the backend


@dataclass(frozen=True)
class GenerationManifest:
    """Index of one generation: which chunks, in which order, under which codec."""

    stream: str          # e.g. "rank0/state"
    generation: int      # the epoch this generation checkpoints
    codec: str
    chunk_size: int
    #: Each segment's chunks, in pickling order (the in-band stream first).
    segments: tuple[tuple[ChunkRef, ...], ...]
    created_at: float = 0.0
    #: Chunk bytes this save actually wrote (0 for a fully-deduped save).
    stored_bytes: int = 0
    reused_chunks: int = 0
    #: Raw SHA-256 of the record before it (empty until :meth:`sealed`).
    checksum: bytes = field(default=b"")

    # ------------------------------------------------------------------ #

    def _record(self) -> bytes:
        """The binary record up to, not including, its checksum."""
        stream, codec = self.stream.encode(), self.codec.encode()
        return b"".join([
            _HEAD.pack(len(stream), len(codec), len(self.segments), self.generation,
                       self.chunk_size, self.created_at, self.stored_bytes,
                       self.reused_chunks),
            stream,
            codec,
            struct.pack(f">{len(self.segments)}I", *map(len, self.segments)),
            *(_CHUNK.pack(bytes.fromhex(ref.digest), ref.length, ref.stored_length)
              for ref in self.chunks),
        ])

    def compute_checksum(self) -> bytes:
        return hashlib.sha256(self._record()).digest()

    def sealed(self) -> "GenerationManifest":
        """A copy with the checksum filled in (called once, at save time)."""
        return replace(self, checksum=self.compute_checksum())

    def verify(self) -> None:
        """Raise :class:`ManifestCorruptError` unless the checksum holds."""
        if not self.checksum or self.checksum != self.compute_checksum():
            raise ManifestCorruptError(
                f"manifest checksum mismatch for {self.stream!r} "
                f"generation {self.generation}"
            )

    def to_bytes(self) -> bytes:
        """The framed record, with the checksum as stored (not recomputed)."""
        return frame(self._record() + self.checksum)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GenerationManifest":
        """Parse a framed record; the checksum is read, not verified."""
        record = memoryview(unframe(blob))
        try:
            stream_len, codec_len, count, *fields = _HEAD.unpack_from(record)
            at = _HEAD.size + stream_len
            stream = str(record[_HEAD.size:at], "utf-8")
            codec = str(record[at:at + codec_len], "utf-8")
            lengths = struct.unpack_from(f">{count}I", record, at + codec_len)
            at += codec_len + 4 * count
            if len(record) != at + _CHUNK.size * sum(lengths) + _CHECKSUM:
                raise ValueError("record length does not match its counts")
        except (struct.error, ValueError) as exc:  # UnicodeDecodeError included
            raise ManifestCorruptError(f"unreadable manifest record: {exc}") from exc
        generation, chunk_size, created_at, stored_bytes, reused = fields
        refs = (ChunkRef(digest.hex(), length, stored)
                for digest, length, stored in _CHUNK.iter_unpack(record[at:-_CHECKSUM]))
        return cls(
            stream, generation, codec, chunk_size,
            tuple(tuple(islice(refs, n)) for n in lengths),
            created_at, stored_bytes, reused, bytes(record[-_CHECKSUM:]),
        )

    # ------------------------------------------------------------------ #

    @property
    def chunks(self) -> tuple[ChunkRef, ...]:
        """Every chunk of every segment, in order."""
        return tuple(chain.from_iterable(self.segments))

    @property
    def logical_bytes(self) -> int:
        """Bytes the chunks decode to: the in-band stream as stored (deflated)
        plus the raw buffers.  :attr:`CheckpointStore.logical_bytes` counts
        the stream undeflated instead."""
        return sum(ref.length for ref in self.chunks)
