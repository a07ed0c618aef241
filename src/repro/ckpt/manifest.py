"""Per-generation manifests: the unit of crash-consistent publication.

A generation (one rank's checkpoint of one epoch) becomes visible only
when its manifest exists and validates.  The manifest names every chunk
of every segment (:mod:`repro.ckpt.delta`) by content address and carries
its own checksum over the addressing data, so three failure modes are all
detected at read time and reported as storage errors rather than
deserialised into garbage state:

* torn write — the crash happened before the manifest's atomic rename, so
  the manifest is simply absent and the previous generation is untouched;
* bit rot in a chunk — the chunk's digest no longer matches its address;
* bit rot (or tampering) in the manifest itself — the frame CRC or the
  manifest checksum fails (:class:`~repro.errors.ManifestCorruptError`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from itertools import chain

from repro.errors import ManifestCorruptError


@dataclass(frozen=True)
class ChunkRef:
    """One chunk of one segment of a generation."""

    digest: str         # content address of the decoded bytes
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
    #: Chunk bytes this save actually wrote (0 for a fully-deduped save);
    #: observability only, excluded from the checksum.
    stored_bytes: int = 0
    reused_chunks: int = 0
    checksum: str = field(default="")

    # ------------------------------------------------------------------ #

    def _digest_material(self) -> bytes:
        parts = [
            self.stream,
            str(self.generation),
            self.codec,
            str(self.chunk_size),
        ]
        for refs in self.segments:
            parts.append(f"segment:{len(refs)}")
            parts.extend(f"{ref.digest}:{ref.length}:{ref.stored_length}" for ref in refs)
        return "\n".join(parts).encode()

    def compute_checksum(self) -> str:
        return hashlib.sha256(self._digest_material()).hexdigest()

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

    # ------------------------------------------------------------------ #

    @property
    def chunks(self) -> tuple[ChunkRef, ...]:
        """Every chunk of every segment, in order."""
        return tuple(chain.from_iterable(self.segments))

    @property
    def logical_bytes(self) -> int:
        return sum(ref.length for ref in self.chunks)

    def describe(self) -> str:
        return (
            f"gen(stream={self.stream}, g={self.generation}, codec={self.codec}, "
            f"chunks={len(self.chunks)}, reused={self.reused_chunks}, "
            f"logical={self.logical_bytes}B, stored={self.stored_bytes}B)"
        )
