"""The tiered checkpoint storage engine.

:class:`CheckpointStore` organises a backend's flat key space into four
regions::

    objects/<codec>/<d0d1>/<digest>         -- content-addressed chunks
    dicts/<d0d1>/<digest>                   -- stream dictionaries, deflated
    manifests/<stream>/gen<g>.mft           -- per-generation manifests
    refs/<stream>/dict                      -- a stream's dictionary digest
    refs/<name>                             -- small named records (COMMIT)

A *stream* is one logical sequence of generations (``rank0/state``,
``rank3/log``); a *generation* is one immutable snapshot within it,
indexed by epoch.  Saving a generation is a two-phase commit:

1. every new chunk of every segment (the in-band pickle stream, deflated,
   then each contiguous buffer of a filesystem block or more, raw;
   :mod:`repro.ckpt.delta`) is written atomically under its content
   address, invisible until referenced; so is, on a stream's first save,
   its dictionary and the reference naming it;
2. the checksummed manifest is published with one atomic rename.

Every write holds values, not schema: manifests are binary records and
checkpoint objects pickle positionally (``util.serialization.Positional``).

A crash anywhere in phase 1, or before phase 2's rename, leaves at most
orphaned chunks: the previous generation's manifest — and therefore the
previous generation — is untouched.  Per-commit GC (:meth:`collect`) and a
rewrite reclaim only chunks of the manifests they delete or replace, checked
against an index of what each manifest names; torn writes' orphans go in the
full re-read, :meth:`sweep_orphans` (the driver runs it after a failed attempt).

Incremental mode consults the backend before writing each chunk: a chunk
whose content address already exists (from any generation of any stream)
costs zero bytes.  Under the identity codec it first compares the chunk
with the one at the same position of the stream's previous generation and
on equality inherits that digest: the compare copies the chunk once
(``bytes(chunk)``) and memcmps it, about 11x cheaper than the digest
(≈ 4.5 µs against ≈ 49 µs per 64 KiB chunk, x86 with SHA extensions), so
unchanged state is copied but never hashed or stored.

The in-band stream is deflated (``zlib`` level :data:`STREAM_LEVEL`) before
it is chunked, against its stream's *dictionary* (zlib's preset dictionary,
RFC 1950): the raw stream of the first generation saved on that stream.
Each generation repeats most of it — class, module and frame-local names,
dtype records, near-identical log records, nearly converged vectors — so
dense CG stores about a quarter fewer bytes than deflating each stream
alone.  A generation depends on the dictionary only, never on another
generation, so retention may drop any of them.  The dictionary is stored
deflated under its raw bytes' digest (streams whose first generations
pickle alike share one) and counts in ``bytes_written``, not in any
manifest's ``stored_bytes``; it lives outside ``objects/``, so GC and
:meth:`sweep_orphans` keep it, and only :meth:`wipe` removes it.  Array
buffers stay raw, so they keep compare-before-hash and dedup (deflate is
deterministic, so an unchanged stream still dedupes too).  A chunk codec
applies per chunk on top of that, after dedup, so it never disturbs content
addressing.  ``logical_bytes`` counts the stream undeflated: what a flat
pickle store would write.

:meth:`load` is the one verified read: the manifest's frame CRC and
checksum, then every chunk's presence, decoding, length and digest, each
chunk hashed once, then the stream's dictionary (its reference, then its
bytes, checked against the digest), then the stream's inflate against it.
A stream with no dictionary or not deflated against one (a store written
before streams had dictionaries) is one more bad generation.  Every way a
generation can be bad raises a
:class:`~repro.errors.StorageError`; anything else is a bug and propagates.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import replace
from itertools import chain, repeat
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.ckpt.backends import Backend
from repro.ckpt.codecs import ChunkCodec, NullCodec, get_chunk_codec
from repro.ckpt.delta import (
    DEFAULT_CHUNK_SIZE,
    DeltaStats,
    capture_segments,
    chunk_digest,
    chunk_views,
)
from repro.ckpt.manifest import ChunkRef, GenerationManifest
from repro.ckpt.retention import RetentionPolicy
from repro.errors import CheckpointError, StorageError
from repro.util.serialization import dumps_framed, loads_framed

#: Progress stages reported to a save hook (fault injection, tests).
STAGE_CHUNK = "chunk"
STAGE_MANIFEST = "manifest"

ProgressHook = Callable[[str, int, int], None]

#: Deflate level of every generation's in-band stream: level 6 saves about
#: 1 % more bytes on dense CG for twice the CPU.
STREAM_LEVEL = 1


class CheckpointStore:
    """Generations of checkpoints over a pluggable backend."""

    def __init__(
        self,
        backend: Backend,
        codec: str = "none",
        incremental: bool = True,
        retention: Optional[RetentionPolicy] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.backend = backend
        self.codec: ChunkCodec = get_chunk_codec(codec)
        self.incremental = incremental
        self.retention = retention or RetentionPolicy()
        self.chunk_size = chunk_size
        #: Cumulative encoded bytes that reached the backend.
        self.bytes_written = 0
        #: Cumulative payload bytes saved, the stream undeflated (what a flat
        #: pickle store would have written); the benchmark's denominator.
        self.logical_bytes = 0
        self.chunks_written = 0
        self.chunks_reused = 0
        #: Chunks whose digest was computed; the rest inherited an old one.
        self.chunks_hashed = 0
        #: Every manifest this store instance has written, in save order —
        #: the bytes-per-generation record benchmarks report from.  (GC
        #: removes generations from the backend, not from this history.)
        self.history: list[GenerationManifest] = []
        #: The newest manifest saved per stream, which that stream's next
        #: save compares its chunks against before hashing them.
        self._previous: dict[str, GenerationManifest] = {}
        #: ``(stream, generation) -> chunk keys`` of each manifest this instance
        #: built or parsed; dropped wherever one is deleted or overwritten.
        self._refs: dict[tuple[str, int], frozenset[str]] = {}
        self._decoders: dict[str, ChunkCodec] = {self.codec.name: self.codec}
        #: ``digest -> (stored bytes, dictionary)`` of each dictionary this
        #: instance wrote or verified; a later read that fetches the same
        #: bytes compares them instead of inflating and hashing them again.
        self._dictionaries: dict[str, tuple[bytes, bytes]] = {}
        #: Optional :class:`repro.trace.TraceRecorder`; armed per run by the
        #: recovery driver (via the ``Storage`` facade).  Emission sites
        #: guard on this being None, so tracing off costs one attribute read.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Key layout.
    # ------------------------------------------------------------------ #

    @staticmethod
    def _chunk_key(digest: str, codec: str) -> str:
        # Chunks are keyed per codec: dedup must never hand a generation a
        # chunk whose bytes were encoded under a different codec than its
        # manifest records.
        return f"objects/{codec}/{digest[:2]}/{digest}"

    @staticmethod
    def _manifest_key(stream: str, generation: int) -> str:
        return f"manifests/{stream}/gen{generation:08d}.mft"

    @staticmethod
    def _record_key(name: str) -> str:
        return f"refs/{name}"

    @staticmethod
    def _dictionary_key(digest: str) -> str:
        return f"dicts/{digest[:2]}/{digest}"

    @staticmethod
    def _dictionary_ref_key(stream: str) -> str:
        return f"refs/{stream}/dict"

    def _decoder(self, name: str) -> ChunkCodec:
        if name not in self._decoders:
            self._decoders[name] = get_chunk_codec(name)
        return self._decoders[name]

    # ------------------------------------------------------------------ #
    # Save / load.
    # ------------------------------------------------------------------ #

    def save(
        self,
        stream: str,
        generation: int,
        obj: Any,
        progress: Optional[ProgressHook] = None,
        created_at: Optional[float] = None,
    ) -> GenerationManifest:
        """Write ``obj`` as ``stream``'s generation ``generation``.

        The ``progress`` hook fires before each chunk is processed and once
        more just before the manifest is published; raising from it models
        a crash mid-write (some chunks persisted, manifest never published).

        ``created_at`` stamps the manifest; callers pass *virtual* time (or
        any deterministic value).  The store never reads the host clock:
        wall-clock timestamps baked into persisted bytes would make two
        otherwise-identical runs produce different backends, poisoning
        byte-level rerun determinism and content-addressed result caches.

        State that pickle cannot serialise (a lambda, a generator, a lock)
        raises :class:`~repro.errors.CheckpointError` naming the stream.
        """
        try:
            stream_raw, *buffers = capture_segments(obj)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # Not a StorageError: restore_line reads those as a damaged
            # store, but this state can never be saved at all.
            raise CheckpointError(
                f"cannot checkpoint stream {stream!r}: its state does not "
                f"pickle ({type(exc).__name__}: {exc})"
            ) from exc
        try:
            zdict, fresh = self._read_dictionary(stream), False
        except StorageError:  # none yet, or a bad one: the stream starts over
            zdict, fresh = bytes(stream_raw), True
        deflater = zlib.compressobj(STREAM_LEVEL, zdict=zdict)
        segments = [memoryview(deflater.compress(stream_raw) + deflater.flush()), *buffers]
        # Overwrite awareness: a recovery attempt that re-takes an epoch's
        # checkpoint republishes (stream, generation).  Remember the old
        # manifest's chunks so those only it referenced can be reclaimed after
        # the new one is published — otherwise every post-failure rewrite
        # strands the previous write's chunks as permanent orphans.
        rewrite = self.backend.exists(self._manifest_key(stream, generation))
        replaced = self._chunk_keys(stream, generation) if rewrite else frozenset()
        # Compare-before-hash needs stored bytes to *be* the decoded bytes
        # (identity codec) and is pointless when every chunk is rewritten.
        previous: tuple[tuple[ChunkRef, ...], ...] = ()
        if self.incremental and isinstance(self.codec, NullCodec) and stream in self._previous:
            previous = self._previous[stream].segments
        total = sum(-(-len(segment) // self.chunk_size) for segment in segments)
        stats = DeltaStats(bytes_logical=len(stream_raw) + sum(map(len, buffers)))
        saved: list[tuple[ChunkRef, ...]] = []
        # Each chunk is paired with the one at its position in the previous
        # generation's same-numbered segment, or None past either's end.
        for segment, old_refs in zip(segments, chain(previous, repeat(()))):
            refs = []
            for chunk, old in zip(
                chunk_views(segment, self.chunk_size), chain(old_refs, repeat(None))
            ):
                if progress is not None:
                    # Fires *before* the chunk is processed, so a hook raising
                    # at index k leaves exactly k chunks persisted.
                    progress(STAGE_CHUNK, stats.chunks_written + stats.chunks_reused, total)
                refs.append(self._chunk_ref(chunk, old, stats))
            saved.append(tuple(refs))
        manifest = GenerationManifest(
            stream=stream,
            generation=generation,
            codec=self.codec.name,
            chunk_size=self.chunk_size,
            segments=tuple(saved),
            created_at=created_at if created_at is not None else 0.0,
            stored_bytes=stats.bytes_stored,
            reused_chunks=stats.chunks_reused,
        ).sealed()
        if progress is not None:
            progress(STAGE_MANIFEST, 0, 1)
        if fresh:
            # Phase 1 still: the dictionary lands before the first manifest
            # that needs it, and after every hook a crash can fire from.
            digest = chunk_digest(zdict)
            try:
                self._dictionary(digest)  # another stream's, stored already
            except StorageError:
                packed = zlib.compress(zdict, STREAM_LEVEL)
                self.backend.put(self._dictionary_key(digest), packed)
                self.bytes_written += len(packed)
                self._dictionaries[digest] = (packed, zdict)
            ref = bytes.fromhex(digest)
            self.backend.put(self._dictionary_ref_key(stream), ref)
            self.bytes_written += len(ref)
        blob = manifest.to_bytes()
        self._refs.pop((stream, generation), None)  # re-indexed once published
        self.backend.put(self._manifest_key(stream, generation), blob)
        self.bytes_written += stats.bytes_stored + len(blob)
        self.logical_bytes += stats.bytes_logical
        self.chunks_written += stats.chunks_written
        self.chunks_reused += stats.chunks_reused
        self.chunks_hashed += stats.chunks_hashed
        self.history.append(manifest)
        self._previous[stream] = manifest
        self._reclaim_replaced(replaced - self._chunk_keys(stream, generation, manifest))
        tr = self.tracer
        if tr is not None:
            # The manifest publish is the atomic point of two-phase commit;
            # one event here captures the whole generation write.
            tr.emit(
                "store", "publish", t=manifest.created_at,
                stream=stream, generation=generation,
                chunks_written=stats.chunks_written,
                chunks_reused=stats.chunks_reused,
                bytes_stored=stats.bytes_stored,
            )
        return manifest

    def _chunk_ref(
        self, chunk: memoryview, old: Optional[ChunkRef], stats: DeltaStats
    ) -> ChunkRef:
        """``old`` itself when the stored chunk it names holds exactly
        ``chunk``'s bytes (no hash); else ``chunk``'s content address,
        writing it unless already present."""
        if old is not None:
            try:
                stored = self.backend.get(self._chunk_key(old.digest, self.codec.name))
            except StorageError:
                stored = None  # reclaimed since it was saved: a miss like any other
            # bytes == bytes is a memcmp; memoryview.__eq__ unpacks per element.
            if stored == bytes(chunk):
                stats.chunks_reused += 1
                return old
        digest = chunk_digest(chunk)
        stats.chunks_hashed += 1
        key = self._chunk_key(digest, self.codec.name)
        if self.incremental and self.backend.exists(key):
            stats.chunks_reused += 1
            return ChunkRef(digest, len(chunk), self.backend.size(key))
        encoded = self.codec.encode(bytes(chunk))
        self.backend.put(key, encoded)
        stats.chunks_written += 1
        stats.bytes_stored += len(encoded)
        return ChunkRef(digest, len(chunk), len(encoded))

    def load(self, stream: str, generation: int) -> Any:
        """Reassemble and deserialise one generation, verifying everything
        (a :class:`StorageError` for any bad byte); each segment gets a
        buffer of its own, so restored arrays are writable."""
        manifest = self.read_manifest(stream, generation)
        deflated, *buffers = (
            bytearray().join(self._verified_chunks(manifest, refs))
            for refs in manifest.segments
        )
        inflater = zlib.decompressobj(zdict=self._read_dictionary(stream))
        try:
            # FDICT: a stream deflated without a dictionary would inflate anyway.
            if len(deflated) < 2 or not deflated[1] & 0x20:
                raise zlib.error("no preset dictionary")
            pickled = inflater.decompress(deflated)
            if not inflater.eof:
                raise zlib.error("truncated stream")
        except zlib.error as exc:
            raise StorageError(
                f"in-band stream of {stream!r} generation {generation} "
                f"failed to inflate: {exc}"
            ) from exc
        return pickle.loads(pickled, buffers=buffers)

    def _read_dictionary(self, stream: str) -> bytes:
        """The dictionary ``stream``'s reference names; a :class:`StorageError`
        when it is bad or the stream has none (a store written before
        dictionaries)."""
        ref = self.backend.get(self._dictionary_ref_key(stream))
        if len(ref) != 20:
            raise StorageError(f"dictionary reference of {stream!r} is {len(ref)} bytes")
        return self._dictionary(ref.hex())

    def _dictionary(self, digest: str) -> bytes:
        """The dictionary stored under ``digest``, read from the backend every
        time and verified like a chunk; only bytes this instance has not
        written or verified before are inflated and hashed."""
        packed = self.backend.get(self._dictionary_key(digest))
        known = self._dictionaries.get(digest)
        if known is not None and known[0] == packed:
            return known[1]
        try:
            zdict = zlib.decompress(packed)
        except zlib.error as exc:
            raise StorageError(f"dictionary {digest[:12]} failed to inflate: {exc}") from exc
        if chunk_digest(zdict) != digest:
            raise StorageError(f"dictionary {digest[:12]} fails content verification")
        self._dictionaries[digest] = (packed, zdict)
        return zdict

    def _verified_chunks(
        self, manifest: GenerationManifest, refs: Iterable[ChunkRef]
    ) -> Iterator[bytes]:
        """Fetch and decode ``refs``' chunks, raising unless each matches its ref."""
        where = f"{manifest.stream!r} generation {manifest.generation}"
        decoder = self._decoder(manifest.codec)
        for ref in refs:
            encoded = self.backend.get(self._chunk_key(ref.digest, manifest.codec))
            try:
                data = decoder.decode(encoded)
            except Exception as exc:
                raise StorageError(
                    f"chunk {ref.digest[:12]} of {where} failed to decode: {exc}"
                ) from exc
            if len(data) != ref.length or chunk_digest(data) != ref.digest:
                raise StorageError(
                    f"chunk {ref.digest[:12]} of {where} fails content verification"
                )
            yield data

    # ------------------------------------------------------------------ #
    # Manifests / generations.
    # ------------------------------------------------------------------ #

    def read_manifest(
        self, stream: str, generation: int, verify: bool = True
    ) -> GenerationManifest:
        blob = self.backend.get(self._manifest_key(stream, generation))
        manifest = GenerationManifest.from_bytes(blob)
        if verify:
            manifest.verify()
        return manifest

    def has_generation(self, stream: str, generation: int) -> bool:
        return self.backend.exists(self._manifest_key(stream, generation))

    def generations(self, stream: str) -> list[int]:
        return sorted(self._generation_index(f"{stream}/").get(stream, []))

    def streams(self) -> list[str]:
        return list(self._generation_index())

    def _generation_index(self, under: str = "") -> dict[str, list[int]]:
        """Every stream's generations from *one* listing of ``manifests/<under>``
        (GC used to list the backend again for each stream)."""
        index: dict[str, list[int]] = {}
        for key in self.backend.keys("manifests/" + under):
            stream, _sep, leaf = key[len("manifests/"):].rpartition("/")
            if stream and leaf.startswith("gen") and leaf.endswith(".mft"):
                index.setdefault(stream, []).append(int(leaf[3:-4]))
        return index

    def corrupt_manifest(self, stream: str, generation: int) -> None:
        """Tamper with a published manifest *without* breaking its frame CRC
        (test/fault-injection helper): the inner checksum must catch it."""
        manifest = self.read_manifest(stream, generation, verify=False)
        # The checksum field rides along unchanged and no longer matches.
        tampered = replace(manifest, chunk_size=manifest.chunk_size + 1)
        self.backend.put(self._manifest_key(stream, generation), tampered.to_bytes())
        self._refs.pop((stream, generation), None)

    def delete_generation(self, stream: str, generation: int) -> None:
        self.backend.delete(self._manifest_key(stream, generation))
        self._refs.pop((stream, generation), None)

    # ------------------------------------------------------------------ #
    # Named records (commit records and other small control data).
    # ------------------------------------------------------------------ #

    def put_record(self, name: str, obj: Any) -> None:
        blob = dumps_framed(obj)
        self.backend.put(self._record_key(name), blob)
        self.bytes_written += len(blob)

    def get_record(self, name: str) -> Any:
        return loads_framed(self.backend.get(self._record_key(name)))

    def has_record(self, name: str) -> bool:
        return self.backend.exists(self._record_key(name))

    # ------------------------------------------------------------------ #
    # Garbage collection.
    # ------------------------------------------------------------------ #

    def collect(
        self,
        pinned: Optional[int] = None,
        retention: Optional[RetentionPolicy] = None,
    ) -> int:
        """Apply retention to every stream, then sweep the chunks the
        deleted generations referenced.

        The sweep is *targeted*: only chunks named by the just-deleted
        manifests are checked against the live reference set, so per-wave
        GC cost scales with what was removed, not with store size.  Chunks
        orphaned without ever gaining a manifest (torn writes) are instead
        reclaimed by :meth:`sweep_orphans`, which the recovery driver runs
        off the hot path after a failed attempt.

        Returns the number of generation manifests removed (reclaimed
        chunks are not counted: they are storage internals, not
        checkpoint objects).
        """
        policy = retention or self.retention
        removed = 0
        candidates: set[str] = set()
        for stream, gens in self._generation_index().items():
            live = policy.live(gens, pinned=pinned)
            for generation in gens:
                if generation not in live:
                    candidates |= self._chunk_keys(stream, generation)
                    self.delete_generation(stream, generation)
                    removed += 1
        self._reclaim(candidates)
        tr = self.tracer
        if tr is not None and removed:
            tr.emit("store", "gc", removed=removed, pinned=pinned)
        return removed

    def sweep_orphans(self) -> int:
        """Full mark-and-sweep: delete every chunk no manifest references.

        O(entire store) — every manifest is read again, which rebuilds the
        index; meant for off-hot-path moments: after a failed attempt
        (reclaiming a torn write's chunks) or administratively.
        """
        self._refs.clear()
        referenced = self._referenced_chunk_keys()
        swept = 0
        for key in self.backend.keys("objects/"):
            if key not in referenced:
                self.backend.delete(key)
                swept += 1
        tr = self.tracer
        if tr is not None and swept:
            tr.emit("store", "sweep_orphans", swept=swept)
        return swept

    def _reclaim_replaced(self, stale: frozenset[str]) -> None:
        """Reclaim the chunks a rewritten generation's old manifest alone
        referenced.  Only chunks a rewrite actually replaced are candidates:
        none in the common recovery case (same state re-taken, chunks
        dedupe)."""
        self._reclaim(stale)

    def _reclaim(self, candidates: set[str] | frozenset[str]) -> None:
        """Delete those of ``candidates`` no published manifest references."""
        if candidates:
            for key in candidates - self._referenced_chunk_keys():
                self.backend.delete(key)

    def _referenced_chunk_keys(self) -> set[str]:
        """One backend listing (other instances publish too), each manifest
        answered from the index or parsed once into it."""
        referenced: set[str] = set()
        for stream, generations in self._generation_index().items():
            for generation in generations:
                referenced |= self._chunk_keys(stream, generation)
        return referenced

    def _chunk_keys(
        self, stream: str, generation: int, manifest: Optional[GenerationManifest] = None
    ) -> frozenset[str]:
        """Backend keys of the chunks one generation references: indexed from
        ``manifest`` when the caller has just published it, else parsed from
        the backend (a torn manifest references nothing and is not indexed)."""
        keys = self._refs.get((stream, generation))
        if keys is None:
            try:
                manifest = manifest or self.read_manifest(stream, generation, verify=False)
            except StorageError:
                return frozenset()
            keys = self._refs[stream, generation] = frozenset(
                self._chunk_key(ref.digest, manifest.codec) for ref in manifest.chunks
            )
        return keys

    def wipe(self) -> None:
        self.backend.wipe()
        self._refs.clear()
