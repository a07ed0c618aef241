"""CheckpointStore engine: delta, compression, two-phase commit, GC."""

import pickle

import numpy as np
import pytest

from repro.ckpt import (
    CheckpointStore,
    DirectoryBackend,
    MemoryBackend,
    RetentionPolicy,
)
from repro.ckpt.delta import SEGMENT_FLOOR, capture_segments, chunk_views
from repro.ckpt.store import STAGE_MANIFEST
from repro.errors import ManifestCorruptError, ProcessKilled, StorageError
from repro.simmpi.failures import FailureSchedule
from repro.statesave.storage import Storage


def make_store(tmp_path=None, **kwargs):
    backend = MemoryBackend() if tmp_path is None else DirectoryBackend(str(tmp_path))
    return CheckpointStore(backend, **kwargs)


class TestSaveLoad:
    def test_roundtrip(self):
        store = make_store()
        obj = {"grid": np.arange(1000.0), "step": 7}
        store.save("rank0/state", 1, obj)
        back = store.load("rank0/state", 1)
        assert back["step"] == 7
        assert np.array_equal(back["grid"], obj["grid"])

    def test_aliasing_survives_roundtrip(self):
        """The whole point of single-stream pickling: shared objects come
        back shared, not duplicated (paper Section 5.1.4)."""
        shared = [1, 2, 3]
        obj = {"a": shared, "b": shared}
        store = make_store()
        store.save("s", 1, obj)
        back = store.load("s", 1)
        assert back["a"] is back["b"]

    def test_multi_chunk_payload(self):
        store = make_store(chunk_size=1024)
        obj = np.arange(4096.0)  # 32 KB payload => many chunks
        manifest = store.save("s", 1, obj)
        assert len(manifest.chunks) > 10
        assert np.array_equal(store.load("s", 1), obj)

    def test_empty_and_tiny_payloads(self):
        store = make_store()
        for gen, obj in enumerate((None, b"", 0, {}), start=1):
            store.save("s", gen, obj)
            assert store.load("s", gen) == obj

    def test_chunk_views_cover_segment_without_copying(self):
        payload = bytearray(bytes(range(256)) * 10)
        chunks = list(chunk_views(memoryview(payload), 100))
        assert b"".join(chunks) == payload
        assert [len(c) for c in chunks] == [100] * 25 + [60]
        payload[0] = 77  # the chunks are views, not copies
        assert chunks[0][0] == 77
        assert list(chunk_views(memoryview(b""), 100)) == []

    def test_large_buffers_leave_the_stream_as_views_of_live_memory(self):
        big, small = np.zeros(512), np.zeros(8)
        stream, *buffers = capture_segments({"big": big, "small": small})
        assert [len(b) for b in buffers] == [big.nbytes]  # small stays in-band
        assert len(stream) < 1024
        big[0] = 1.0
        assert bytes(buffers[0][:8]) == big[:1].tobytes()

    @pytest.mark.parametrize("chunk_size", [256, 4096, 65536, 1 << 20])
    def test_segment_floor_is_one_block_whatever_the_chunk_size(self, chunk_size):
        """Which buffers are segments is fixed; ``chunk_size`` only cuts them."""
        assert SEGMENT_FLOOR == 4096
        at_floor = np.zeros(SEGMENT_FLOOR, dtype=np.uint8)
        under = np.zeros(SEGMENT_FLOOR - 8, dtype=np.uint8)
        strided = np.zeros(1 << 17, dtype=np.uint8)[::2]  # 64 KB, non-contiguous
        obj = {"under": under, "strided": strided, "at_floor": at_floor}
        stream, *buffers = capture_segments(obj)
        assert [len(b) for b in buffers] == [SEGMENT_FLOOR]
        assert len(stream) > under.nbytes + strided.nbytes
        store = make_store(chunk_size=chunk_size)
        manifest = store.save("s", 1, obj)
        in_band, out_of_band = manifest.segments
        assert sum(ref.length for ref in in_band) == len(stream)
        assert sum(ref.length for ref in out_of_band) == SEGMENT_FLOOR
        assert len(out_of_band) == -(-SEGMENT_FLOOR // chunk_size)
        back = store.load("s", 1)
        assert all(np.array_equal(back[name], obj[name]) for name in obj)

    def test_restored_arrays_are_writable_and_own_their_memory(self):
        store = make_store(chunk_size=1024)
        store.save("s", 1, {"big": np.arange(4096.0), "small": np.arange(8.0)})
        first, second = store.load("s", 1), store.load("s", 1)
        for name in ("big", "small"):
            assert first[name].flags.writeable
            first[name][0] = -1.0  # in place, visible to nothing else
            assert first[name][0] == -1.0
            assert second[name][0] == 0.0
        assert store.load("s", 1)["big"][0] == 0.0

    def test_read_only_array_stays_read_only(self):
        frozen = np.arange(4096.0)
        frozen.flags.writeable = False
        store = make_store(chunk_size=1024)
        store.save("s", 1, frozen)
        back = store.load("s", 1)
        assert not back.flags.writeable
        assert np.array_equal(back, frozen)

    def test_array_shared_by_two_containers_is_one_object_after_load(self):
        shared = np.arange(4096.0)
        store = make_store(chunk_size=1024)
        manifest = store.save("s", 1, {"a": [shared], "b": (shared, 1)})
        assert len(manifest.segments) == 2  # pickled (and stored) once
        back = store.load("s", 1)
        assert back["a"][0] is back["b"][0]
        back["a"][0][5] = -5.0
        assert back["b"][0][5] == -5.0

    def test_sub_chunk_segment_restores_like_any_other(self):
        """An array under one (default 64 KiB) chunk but over the floor is
        out of band: it comes back writable, in memory of its own, still
        one object where two containers shared it; read-only stays so."""
        shared, frozen = np.arange(1024.0), np.arange(1024.0) + 0.5
        frozen.flags.writeable = False
        store = make_store()
        manifest = store.save("s", 1, {"a": [shared], "b": (shared, 1), "f": frozen})
        assert [len(refs) for refs in manifest.segments] == [1, 1, 1]
        first, second = store.load("s", 1), store.load("s", 1)
        assert first["a"][0] is first["b"][0]
        assert first["a"][0].flags.writeable
        first["a"][0][5] = -5.0  # in place, visible through the alias only
        assert first["b"][0][5] == -5.0 and second["a"][0][5] == 5.0
        assert not first["f"].flags.writeable
        assert np.array_equal(first["f"], frozen)

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(4096.0)[::2],                            # non-contiguous
            np.asfortranarray(np.arange(4096.0).reshape(64, 64)),
            np.arange(4096.0).reshape(64, 64).T[1:],           # F-order view
            np.zeros((0, 3)),                                  # zero-size
            np.array([{"k": 1}, None, "s"] * 400, dtype=object),
            np.arange(16.0),                                   # under the floor
            np.arange(4096, dtype=">i4"),                      # non-native dtype
        ],
        ids=["strided", "fortran", "fortran-view", "empty", "object", "small", "big-endian"],
    )
    def test_awkward_arrays_roundtrip(self, array):
        store = make_store(chunk_size=1024)
        store.save("s", 1, {"x": array})
        back = store.load("s", 1)["x"]
        plain = pickle.loads(pickle.dumps(array, protocol=5))  # reference round trip
        assert back.dtype == plain.dtype and back.strides == plain.strides
        assert back.flags.writeable
        assert np.array_equal(back, array)


class TestIncremental:
    def test_unchanged_state_costs_no_chunk_bytes(self):
        store = make_store(chunk_size=512)
        obj = {"matrix": np.ones(2048)}
        m1 = store.save("s", 1, obj)
        m2 = store.save("s", 2, obj)
        assert m1.stored_bytes > 0
        assert m2.stored_bytes == 0  # every chunk deduped
        assert m2.reused_chunks == len(m2.chunks)

    def test_partial_change_writes_only_changed_chunks(self):
        store = make_store(chunk_size=1024)
        arr = np.zeros(8192)
        store.save("s", 1, {"a": arr})
        arr[0] = 99.0  # touch the first chunk only
        m2 = store.save("s", 2, {"a": arr})
        assert 0 < m2.stored_bytes < m2.logical_bytes // 4
        assert m2.reused_chunks > len(m2.chunks) // 2

    def test_full_mode_always_writes(self):
        store = make_store(incremental=False, chunk_size=512)
        obj = {"x": np.ones(1024)}
        m1 = store.save("s", 1, obj)
        m2 = store.save("s", 2, obj)
        assert m2.stored_bytes == m1.stored_bytes > 0

    def test_full_mode_writes_every_chunk_and_never_compares(self):
        store = make_store(incremental=False, chunk_size=1024)
        obj = {"x": np.ones(4096)}
        m1 = store.save("s", 1, obj)
        m2 = store.save("s", 2, obj)
        assert store.chunks_written == len(m1.chunks) + len(m2.chunks)
        assert store.chunks_hashed == store.chunks_written
        assert store.chunks_reused == 0

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_unchanged_state_is_not_hashed(self, on_disk, tmp_path):
        store = make_store(tmp_path if on_disk else None, chunk_size=1024)
        obj = {"matrix": np.arange(8192.0), "step": 3}
        m1 = store.save("s", 1, obj)
        assert store.chunks_hashed == len(m1.chunks) == store.chunks_written
        m2 = store.save("s", 2, obj)
        assert store.chunks_hashed == len(m1.chunks)  # none added
        assert m2.stored_bytes == 0 and m2.chunks == m1.chunks
        assert np.array_equal(store.load("s", 2)["matrix"], obj["matrix"])

    def test_one_flipped_byte_hashes_and_writes_exactly_one_chunk(self):
        store = make_store()  # default 64 KiB chunks
        arr = np.zeros(4 * 1024 * 1024, dtype=np.uint8)
        m1 = store.save("s", 1, {"a": arr})
        hashed, written = store.chunks_hashed, store.chunks_written
        arr[len(arr) // 2] ^= 0xFF
        m2 = store.save("s", 2, {"a": arr})
        assert store.chunks_hashed - hashed == 1
        assert store.chunks_written - written == 1
        assert m2.stored_bytes == store.chunk_size
        assert sum(a != b for a, b in zip(m1.chunks, m2.chunks)) == 1
        assert np.array_equal(store.load("s", 2)["a"], arr)
        assert store.load("s", 1)["a"][len(arr) // 2] == 0  # old bytes intact

    def test_constant_sub_chunk_array_beside_a_changing_one_is_stored_once(self):
        """Dense CG at small per-rank sizes: a constant 32 KB block next to
        a changing 1 KB vector, under the default 64 KiB chunk."""
        store = make_store()
        const, hot = np.arange(4096.0), np.zeros(128)
        m1 = store.save("s", 1, {"const": const, "hot": hot})
        assert m1.stored_bytes > const.nbytes
        hashed = store.chunks_hashed
        hot += 1.0
        m2 = store.save("s", 2, {"const": const, "hot": hot})
        assert m2.stored_bytes < 2048
        assert store.chunks_hashed - hashed == 1  # the in-band stream only
        assert m2.segments[1] == m1.segments[1] and m2.reused_chunks == 1
        assert store.load("s", 2)["hot"][0] == 1.0

    def test_shifted_segment_numbers_fall_back_to_the_content_address(self):
        """A new array pickled *before* an unchanged one renumbers it, so the
        positional compare misses: it is hashed once, found, and stores 0."""
        store = make_store()
        keep, new = np.arange(1024.0), np.arange(1024.0) + 0.5
        m1 = store.save("s", 1, {"keep": keep})
        hashed, written = store.chunks_hashed, store.chunks_written
        m2 = store.save("s", 2, {"new": new, "keep": keep})
        assert m2.segments[2] == m1.segments[1]
        assert store.chunks_hashed - hashed == 3  # stream, new, keep
        assert store.chunks_written - written == 2  # stream, new
        assert m2.stored_bytes == m2.segments[0][0].length + new.nbytes
        assert np.array_equal(store.load("s", 2)["keep"], keep)

    def test_in_band_growth_does_not_shift_array_chunks(self):
        """Per-segment boundaries: the array's chunks start at its own byte
        0, so a longer in-band stream costs only the stream's chunk."""
        store = make_store(chunk_size=1024)
        arr = np.arange(8192.0)
        store.save("s", 1, {"note": "x", "a": arr})
        hashed = store.chunks_hashed
        m2 = store.save("s", 2, {"note": "x" * 100, "a": arr})
        assert store.chunks_hashed - hashed == 1
        assert m2.reused_chunks == len(m2.chunks) - 1

    @pytest.mark.parametrize("size", [8192 + 200, 8192 - 200])
    def test_resized_array_still_compares_its_common_prefix(self, size):
        """Positions are offsets from the segment's own start, so growing or
        shrinking an array leaves every full chunk before its old/new end
        comparable; only the ragged tail (and the in-band stream, which
        records the new shape) is hashed."""
        store = make_store(chunk_size=1024)
        store.save("s", 1, {"a": np.arange(8192.0)})
        hashed = store.chunks_hashed
        resized = np.arange(float(size))
        m2 = store.save("s", 2, {"a": resized})
        common = min(size, 8192) * 8 // 1024
        assert m2.reused_chunks == common
        assert store.chunks_hashed - hashed == len(m2.chunks) - common
        assert np.array_equal(store.load("s", 2)["a"], resized)

    @pytest.mark.parametrize("lose", ["collected", "chunk-deleted", "wiped"])
    def test_lost_previous_generation_falls_back_to_hashing(self, lose):
        store = make_store(chunk_size=1024, retention=RetentionPolicy(keep_last=1))
        arr = np.arange(8192.0)
        m1 = store.save("s", 1, {"a": arr})
        if lose == "collected":
            store.save("other", 9, "keeps retention from pinning s/1")
            store.delete_generation("s", 1)
            assert store.sweep_orphans() == len(m1.chunks)
        elif lose == "chunk-deleted":
            store.backend.delete(store._chunk_key(m1.chunks[3].digest, m1.codec))
        else:
            store.wipe()
        hashed = store.chunks_hashed
        m2 = store.save("s", 2, {"a": arr})
        missing = 1 if lose == "chunk-deleted" else len(m1.chunks)
        assert store.chunks_hashed - hashed == missing
        assert m2.stored_bytes > 0
        assert np.array_equal(store.load("s", 2)["a"], arr)

    def test_compare_shortcut_is_per_stream(self):
        store = make_store(chunk_size=1024)
        arr = np.arange(8192.0)
        m1 = store.save("rank0/state", 1, arr)
        m2 = store.save("rank1/state", 1, arr)  # no previous: hashed, deduped
        assert store.chunks_hashed == 2 * len(m1.chunks)
        assert m2.stored_bytes == 0

    def test_non_identity_codec_never_takes_the_compare_shortcut(self):
        store = make_store(codec="zlib", chunk_size=1024)
        obj = {"a": np.arange(8192.0)}
        m1 = store.save("s", 1, obj)
        m2 = store.save("s", 2, obj)
        assert store.chunks_hashed == len(m1.chunks) + len(m2.chunks)
        assert m2.stored_bytes == 0  # content addressing still dedups
        assert np.array_equal(store.load("s", 2)["a"], obj["a"])

    def test_dedup_crosses_streams(self):
        store = make_store(chunk_size=512)
        obj = np.arange(2048.0)
        store.save("rank0/state", 1, obj)
        m = store.save("rank1/state", 1, obj)
        assert m.stored_bytes == 0


class TestCompression:
    def test_zlib_stores_fewer_bytes(self):
        obj = {"grid": np.zeros(65536)}  # highly compressible
        flat = make_store(codec="none")
        packed = make_store(codec="zlib")
        m_flat = flat.save("s", 1, obj)
        m_packed = packed.save("s", 1, obj)
        assert m_packed.stored_bytes < m_flat.stored_bytes // 10
        assert np.array_equal(packed.load("s", 1)["grid"], obj["grid"])

    def test_codec_change_does_not_poison_dedup(self, tmp_path):
        """Chunks are keyed per codec: a store reopened with a different
        codec must not dedupe against bytes it cannot decode."""
        obj = {"m": np.arange(4096.0)}
        first = make_store(tmp_path, codec="zlib", chunk_size=1024)
        first.save("s", 1, obj)
        second = make_store(tmp_path, codec="none", chunk_size=1024)
        m2 = second.save("s", 2, obj)
        assert m2.stored_bytes > 0  # no cross-codec dedup
        assert np.array_equal(second.load("s", 2)["m"], obj["m"])
        assert np.array_equal(second.load("s", 1)["m"], obj["m"])

    def test_codec_change_between_generations_still_loads(self, tmp_path):
        first = make_store(tmp_path, codec="none")
        first.save("s", 1, [1, 2, 3])
        second = make_store(tmp_path, codec="zlib")
        second.save("s", 2, [4, 5, 6])
        # Each generation's manifest remembers its own codec.
        assert second.load("s", 1) == [1, 2, 3]
        assert second.load("s", 2) == [4, 5, 6]


class TestTwoPhaseCommit:
    def test_crash_before_manifest_preserves_previous_generation(self):
        store = make_store(chunk_size=256)
        store.save("s", 1, {"v": np.arange(512.0)})

        class Boom(RuntimeError):
            pass

        def crash_mid_write(stage, index, total):
            if stage == "chunk" and index >= 1:
                raise Boom()

        with pytest.raises(Boom):
            store.save("s", 2, {"v": np.arange(512.0) + 1}, progress=crash_mid_write)
        assert not store.has_generation("s", 2)
        assert store.load("s", 1)["v"][3] == 3.0

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 9])
    def test_crash_at_chunk_k_persists_exactly_k_chunks(self, k):
        """Chunk indices run across segment boundaries: segment 0 is the
        in-band stream (1 chunk), then two 4-chunk arrays."""
        store = make_store(chunk_size=1024)
        obj = {"a": np.arange(512.0), "b": np.arange(512.0) + 0.5}
        totals = []

        def crash_at_k(stage, index, total):
            totals.append(total)
            if stage == "chunk" and index >= k:
                raise RuntimeError("crash")

        if k < 9:
            with pytest.raises(RuntimeError):
                store.save("s", 1, obj, progress=crash_at_k)
            assert not store.has_generation("s", 1)
        else:
            store.save("s", 1, obj, progress=crash_at_k)
        assert len(store.backend.keys("objects/")) == k
        assert set(totals[:9]) == {9}

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_checkpoint_crash_over_sub_chunk_segments_leaves_k_chunks(self, k):
        """Default chunk size: the stream and two 8 KB arrays are one chunk
        each, and a ``CheckpointCrash`` with ``after_chunks=k`` counts across them."""
        storage = Storage(None)
        storage.crash_plan = FailureSchedule.during_checkpoint(0, 1, after_chunks=k)
        state = {"a": np.arange(1024.0), "b": np.arange(1024.0) + 0.5}
        with pytest.raises(ProcessKilled):
            storage.write_state(0, 1, state)
        assert len(storage.store.backend.keys("objects/")) == k
        assert not storage.store.has_generation("rank0/state", 1)
        assert storage.store.sweep_orphans() == k

    def test_crash_at_manifest_publish_leaves_generation_invisible(self):
        store = make_store()
        store.save("s", 1, "good")

        def crash_at_manifest(stage, index, total):
            if stage == STAGE_MANIFEST:
                raise RuntimeError("torn")

        with pytest.raises(RuntimeError):
            store.save("s", 2, "doomed", progress=crash_at_manifest)
        assert store.generations("s") == [1]
        # Orphaned chunks from the torn write are reclaimed by the full
        # sweep (the recovery driver runs it after a failed attempt).
        assert store.sweep_orphans() >= 1
        assert store.load("s", 1) == "good"

    def test_rewriting_a_generation_reclaims_replaced_chunks(self):
        """Regression (chaos campaign): a recovery attempt that re-takes an
        uncommitted epoch's checkpoint republishes the same (stream,
        generation); the replaced manifest's chunks used to become
        permanent orphans."""
        store = make_store(chunk_size=256)
        store.save("s", 1, {"v": np.arange(512.0)})
        store.save("s", 1, {"v": np.arange(512.0) + 1})  # rewrite, new bytes
        assert store.load("s", 1)["v"][0] == 1.0
        assert store.sweep_orphans() == 0

    def test_retaken_generation_compares_against_the_write_it_replaces(self):
        """A recovery attempt re-takes (stream, generation): unchanged chunks
        are reused without hashing, replaced ones are reclaimed."""
        store = make_store(chunk_size=1024)
        arr = np.arange(8192.0)
        first = store.save("s", 1, {"a": arr})
        hashed = store.chunks_hashed
        arr[0] = -1.0
        second = store.save("s", 1, {"a": arr})
        assert store.chunks_hashed - hashed == 1
        replaced = set(first.chunks) - set(second.chunks)
        assert len(replaced) == 1
        for ref in replaced:
            assert not store.backend.exists(store._chunk_key(ref.digest, first.codec))
        assert store.sweep_orphans() == 0
        assert store.load("s", 1)["a"][0] == -1.0

    def test_rewrite_keeps_chunks_shared_with_other_generations(self):
        store = make_store(chunk_size=256)
        payload = {"v": np.arange(512.0)}
        store.save("s", 1, payload)
        store.save("s", 2, payload)        # dedups against generation 1
        store.save("s", 1, {"v": np.arange(512.0) + 9})
        # Generation 2 still references the original chunks; the rewrite
        # must not reclaim them out from under it.
        assert store.load("s", 2)["v"][3] == 3.0
        assert store.sweep_orphans() == 0

    def test_retaken_wave_reads_no_manifest_twice(self):
        """A 16-rank wave re-taken after a kill, every rank's chunks changed:
        the store that wrote the wave knows what each manifest references
        (no manifest read at all); one opened on the same backend afterwards
        parses each manifest at most once, not once per rewrite (the old
        full scan cost 16 x 34 reads here)."""
        reads = []

        class CountingBackend(MemoryBackend):
            def get(self, key):
                if key.startswith("manifests/"):
                    reads.append(key)
                return super().get(key)

        def take_wave(store, generation, shift):
            for rank in range(16):
                store.save(f"rank{rank}/state", generation, np.arange(256.0) + rank + shift)

        backend = CountingBackend()
        store = CheckpointStore(backend, chunk_size=512)
        take_wave(store, 1, 0.0)
        take_wave(store, 2, 100.0)
        chunks = len(backend.keys("objects/"))
        reads.clear()
        take_wave(store, 2, 200.0)
        assert reads == []
        restarted = CheckpointStore(backend, chunk_size=512)
        take_wave(restarted, 2, 300.0)
        assert len(reads) == len(set(reads)) <= 32
        assert len(backend.keys("objects/")) == chunks  # replaced chunks reclaimed
        assert restarted.sweep_orphans() == 0
        assert restarted.load("rank5/state", 2)[0] == 305.0
        assert restarted.load("rank5/state", 1)[0] == 5.0

    def test_second_store_on_the_same_directory_sees_every_reference(self, tmp_path):
        """The reference index is per instance and lazily rebuilt from the
        backend, never assumed complete: a store opened after another one
        wrote must not reclaim chunks the other's manifests still name."""
        shared = np.arange(512.0)
        first = make_store(tmp_path, chunk_size=512)
        first.save("a", 1, {"v": shared})
        first.save("b", 1, {"v": shared, "own": np.ones(512)})
        second = make_store(tmp_path, chunk_size=512)
        second.save("b", 1, {"v": shared + 1, "own": np.ones(512)})  # drops b's use of shared
        assert np.array_equal(first.load("a", 1)["v"], shared)
        assert np.array_equal(second.load("a", 1)["v"], shared)
        second.save("a", 1, {"v": shared + 2})  # now nothing names shared's chunks
        assert second.sweep_orphans() == 0
        assert make_store(tmp_path, chunk_size=512).sweep_orphans() == 0

    def test_rewrite_after_corrupt_manifest_leaves_no_orphans(self):
        """rewrite -> tamper -> rewrite: the tampered manifest's index entry
        is dropped, so the second rewrite reclaims against what the backend
        holds, and a manifest that cannot be parsed references nothing."""
        store = make_store(chunk_size=256)
        store.save("s", 1, {"v": np.arange(512.0)})
        store.save("s", 1, {"v": np.arange(512.0) + 1})
        store.corrupt_manifest("s", 1)
        assert ("s", 1) not in store._refs
        store.save("s", 1, {"v": np.arange(512.0) + 2})
        assert store.load("s", 1)["v"][0] == 2.0
        assert store.sweep_orphans() == 0
        torn = store.save("t", 1, {"v": np.arange(512.0) + 3})
        store.backend.put(store._manifest_key("t", 1), b"torn")
        # The full pass trusts the backend, not the index: the chunks only the
        # unreadable manifest named go, and it is not indexed again.
        only_torn = set(torn.chunks) - set(store.read_manifest("s", 1).chunks)
        assert store.sweep_orphans() == len(only_torn) > 0
        assert ("t", 1) not in store._refs and ("s", 1) in store._refs
        assert store.load("s", 1)["v"][0] == 2.0

    def test_corrupt_manifest_is_rejected(self):
        store = make_store()
        store.save("s", 1, "data")
        store.corrupt_manifest("s", 1)
        with pytest.raises(ManifestCorruptError):
            store.load("s", 1)

    def test_missing_chunk_detected(self):
        store = make_store()
        manifest = store.save("s", 1, "data")
        store.backend.delete(
            store._chunk_key(manifest.chunks[0].digest, manifest.codec)
        )
        with pytest.raises(StorageError):
            store.load("s", 1)


class TestRetentionAndGC:
    def _filled(self, **kwargs):
        store = make_store(**kwargs)
        for gen in range(1, 7):
            store.save("rank0/state", gen, {"gen": gen, "pad": np.arange(100.0) * gen})
        return store

    def test_keep_last_k(self):
        store = self._filled(retention=RetentionPolicy(keep_last=2))
        removed = store.collect()
        assert removed == 4
        assert store.generations("rank0/state") == [5, 6]

    def test_keep_every_nth(self):
        store = self._filled(
            retention=RetentionPolicy(keep_last=1, keep_every=3)
        )
        store.collect()
        assert store.generations("rank0/state") == [3, 6]

    def test_pinned_generation_survives(self):
        store = self._filled(retention=RetentionPolicy(keep_last=1))
        store.collect(pinned=2)
        assert store.generations("rank0/state") == [2, 6]

    def test_chunk_sweep_reclaims_unreferenced_bytes(self):
        store = self._filled(retention=RetentionPolicy(keep_last=1))
        before = len(store.backend.keys("objects/"))
        store.collect()
        after = len(store.backend.keys("objects/"))
        assert after < before
        # The survivor still loads after the sweep.
        assert store.load("rank0/state", 6)["gen"] == 6

    def test_shared_chunks_survive_sweep(self):
        """A chunk referenced by a live generation is kept even when a dead
        generation also referenced it."""
        store = make_store(chunk_size=512, retention=RetentionPolicy(keep_last=1))
        constant = np.arange(1024.0)
        store.save("s", 1, {"const": constant, "step": 1})
        store.save("s", 2, {"const": constant, "step": 2})
        store.collect()
        assert store.generations("s") == [2]
        assert np.array_equal(store.load("s", 2)["const"], constant)

    def test_directory_backend_holds_one_object_per_distinct_chunk(self, tmp_path):
        """Sub-chunk segments on disk: save, rewrite and collect leave one
        file per distinct referenced chunk and nothing for the sweep."""
        store = make_store(tmp_path, retention=RetentionPolicy(keep_last=1))
        const, hot = np.arange(1024.0), np.zeros(512)

        def check():
            referenced = {
                ref.digest
                for stream in store.streams()
                for gen in store.generations(stream)
                for ref in store.read_manifest(stream, gen).chunks
            }
            assert len(store.backend.keys("objects/")) == len(referenced)
            assert store.sweep_orphans() == 0
            return len(referenced)

        def state(rank, value):
            return {"rank": rank, "const": const, "hot": hot + value}

        for rank in range(2):
            store.save(f"rank{rank}/state", 1, state(rank, rank))
        assert check() == 5  # per stream an in-band and a hot chunk; one const
        store.save("rank0/state", 1, state(0, 7))  # rewrite: old hot reclaimed
        assert check() == 5
        for rank in range(2):
            store.save(f"rank{rank}/state", 2, state(rank, -1 - rank))
        assert check() == 7  # two more hot chunks, nothing else new
        assert store.collect() == 2
        assert check() == 5
        assert np.array_equal(store.load("rank1/state", 2)["const"], const)

    def test_gc_lists_the_manifest_keys_once(self):
        """collect / sweep walk one stream -> generations index instead of
        re-listing the backend per stream."""
        scans = []

        class CountingBackend(MemoryBackend):
            def keys(self, prefix=""):
                scans.append(prefix)
                return super().keys(prefix)

        store = CheckpointStore(
            CountingBackend(), chunk_size=512, retention=RetentionPolicy(keep_last=1)
        )
        for rank in range(8):
            for gen in (1, 2):
                store.save(f"rank{rank}/state", gen, np.arange(256.0) * gen + rank)
        assert store.streams() == sorted(f"rank{r}/state" for r in range(8))
        assert store.generations("rank3/state") == [1, 2]
        assert store.generations("rank3") == store.generations("nope") == []
        scans.clear()
        assert store.collect() == 8
        assert scans == ["manifests/", "manifests/"]  # retention pass + live refs
        scans.clear()
        store.sweep_orphans()
        assert scans == ["manifests/", "objects/"]
        assert store.generations("rank3/state") == [2]

    def test_retention_policy_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            RetentionPolicy(keep_last=0)
        with pytest.raises(ConfigError):
            RetentionPolicy(keep_every=0)


class TestRecords:
    def test_record_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        assert not store.has_record("COMMIT")
        store.put_record("COMMIT", [{"epoch": 3}])
        assert store.get_record("COMMIT") == [{"epoch": 3}]


class TestAccounting:
    def test_logical_vs_stored_bytes(self):
        store = make_store(codec="zlib", chunk_size=1024)
        obj = {"zeros": np.zeros(16384)}
        store.save("s", 1, obj)
        store.save("s", 2, obj)
        assert store.logical_bytes > 2 * 16384 * 8
        assert store.bytes_written < store.logical_bytes // 10
        assert store.chunks_reused > 0
        assert store.generations_saved == 2

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            make_store(chunk_size=0)

    def test_segment_boundaries_are_checksummed(self):
        from dataclasses import replace

        store = make_store(chunk_size=1024)
        array = np.arange(4096.0)
        manifest = store.save("s", 1, array)
        stream, data = manifest.segments
        assert sum(ref.length for ref in data) == array.nbytes
        assert manifest.chunks == stream + data
        assert manifest.logical_bytes == array.nbytes + stream[0].length
        # Same chunks in the same order, one boundary moved.
        moved = replace(manifest, segments=(stream + data[:1], data[1:]))
        assert moved.chunks == manifest.chunks
        with pytest.raises(ManifestCorruptError):
            moved.verify()
