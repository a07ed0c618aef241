"""The manifest's on-backend form: a framed fixed binary record."""

from dataclasses import replace

import numpy as np
import pytest

from repro.ckpt import CheckpointStore, GenerationManifest, MemoryBackend
from repro.ckpt.delta import SEGMENT_FLOOR
from repro.ckpt.manifest import _HEAD
from repro.errors import ManifestCorruptError, StorageError
from repro.statesave.format import CheckpointData
from repro.statesave.storage import Storage
from repro.util.serialization import _HEADER, dumps_framed, frame, unframe

#: ``rank0/state`` with one in-band chunk and one array chunk.
TWO_SEGMENTS = {"grid": np.arange(SEGMENT_FLOOR // 8, dtype=np.float64)}


def saved(obj=TWO_SEGMENTS, stream="rank0/state", generation=3):
    store = CheckpointStore(MemoryBackend())
    manifest = store.save(stream, generation, obj, created_at=0.25)
    return store, manifest, store.backend.get(store._manifest_key(stream, generation))


def test_record_round_trips_every_field():
    store, manifest, blob = saved()
    assert len(manifest.segments) == 2
    parsed = GenerationManifest.from_bytes(blob)
    assert parsed == manifest
    assert parsed.created_at == 0.25 and parsed.checksum == manifest.compute_checksum()
    assert store.read_manifest("rank0/state", 3) == manifest


def test_two_segment_manifest_is_164_bytes():
    """Frame header 16 + fixed fields 37 + names 15 + two chunk counts 8
    + two chunk refs 56 + checksum 32 (the pickled form took 476)."""
    _store, _manifest, blob = saved()
    assert len(blob) == 164


def test_record_holds_raw_digests_not_hex():
    _store, manifest, blob = saved()
    payload = unframe(blob)
    for ref in manifest.chunks:
        assert bytes.fromhex(ref.digest) in payload
        assert ref.digest.encode() not in payload
    assert payload.endswith(manifest.checksum) and len(manifest.checksum) == 32


@pytest.mark.parametrize("region", ["header", "digests", "checksum", "everywhere"])
def test_one_flipped_byte_is_a_storage_error(region):
    store, manifest, blob = saved()
    first_digest = blob.index(bytes.fromhex(manifest.chunks[0].digest))
    spans = {
        "header": range(0, _HEADER.size + _HEAD.size),  # frame and fixed fields
        "digests": range(first_digest, first_digest + 20),
        "checksum": range(len(blob) - 32, len(blob)),
        "everywhere": range(len(blob)),
    }
    key = store._manifest_key("rank0/state", 3)
    for at in spans[region]:
        broken = bytearray(blob)
        broken[at] ^= 0x01
        store.backend.put(key, bytes(broken))
        with pytest.raises(StorageError):
            store.load("rank0/state", 3)
    store.backend.put(key, blob)
    assert store.load("rank0/state", 3)["grid"][-1] == TWO_SEGMENTS["grid"][-1]


def test_corrupt_manifest_keeps_the_frame_and_breaks_the_checksum():
    store, manifest, _blob = saved()
    store.corrupt_manifest("rank0/state", 3)
    tampered_blob = store.backend.get(store._manifest_key("rank0/state", 3))
    tampered = GenerationManifest.from_bytes(tampered_blob)  # the frame CRC holds
    assert tampered.checksum == manifest.checksum
    assert tampered.chunk_size != manifest.chunk_size
    with pytest.raises(ManifestCorruptError):
        tampered.verify()
    with pytest.raises(ManifestCorruptError):
        store.load("rank0/state", 3)


@pytest.mark.parametrize("cut", [1, 20, 40])
def test_truncated_record_in_a_valid_frame_is_refused(cut):
    _store, _manifest, blob = saved()
    with pytest.raises(ManifestCorruptError, match="unreadable"):
        GenerationManifest.from_bytes(frame(unframe(blob)[:-cut]))


def pickled_form(manifest):
    """The manifest as older code stored it: a pickled dataclass with hex
    digests and a hex checksum, in the same frame."""
    return dumps_framed(replace(manifest, checksum=manifest.checksum.hex()))


def test_pickled_manifest_is_refused_not_crashed_on():
    store, manifest, _blob = saved()
    store.backend.put(store._manifest_key("rank0/state", 3), pickled_form(manifest))
    with pytest.raises(ManifestCorruptError):
        store.read_manifest("rank0/state", 3)
    with pytest.raises(ManifestCorruptError):
        store.read_manifest("rank0/state", 3, verify=False)
    # GC treats it like any unreadable manifest: it names no chunk.
    assert store.sweep_orphans() == len(manifest.chunks)


def test_store_of_pickled_manifests_restarts_from_scratch():
    storage = Storage(None)
    for rank in range(2):
        storage.write_state(rank, 1, CheckpointData(rank=rank, epoch=1, protocol=None))
        storage.write_log(rank, 1, [])
    storage.commit(1, 0.5, nprocs=2)
    assert storage.committed_epoch() == 1
    store = storage.store
    for stream in store.streams():
        key = store._manifest_key(stream, 1)
        manifest = GenerationManifest.from_bytes(store.backend.get(key))
        store.backend.put(key, pickled_form(manifest))
    assert storage.restore_line() is None
