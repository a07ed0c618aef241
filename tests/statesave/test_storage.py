"""Stable storage: commit discipline, GC, corruption resistance."""

import os

import pytest

from repro.ckpt.backends import MemoryBackend
from repro.ckpt.store import CheckpointStore
from repro.errors import ManifestCorruptError, StorageError
from repro.statesave.format import CheckpointData
from repro.statesave.storage import Storage
from repro.util.serialization import FrameCorruptError


def ckpt(rank=0, epoch=1):
    return CheckpointData(rank=rank, epoch=epoch, protocol={"epoch": epoch})


def commit_epoch(storage, epoch, nprocs=1):
    """Write every rank's state and log of ``epoch``, then commit it."""
    for rank in range(nprocs):
        storage.write_state(rank, epoch, ckpt(rank, epoch))
        storage.write_log(rank, epoch, {"epoch": epoch})
    storage.commit(epoch, float(epoch), nprocs=nprocs)


@pytest.fixture(params=["memory", "disk"])
def storage(request, tmp_path):
    if request.param == "memory":
        return Storage(None)
    return Storage(str(tmp_path / "stable"))


class TestBasicIO:
    def test_state_roundtrip(self, storage):
        storage.write_state(0, 1, ckpt())
        data = storage.read_state(0, 1)
        assert data.rank == 0 and data.epoch == 1

    def test_log_roundtrip(self, storage):
        storage.write_log(2, 3, {"late": []})
        assert storage.read_log(2, 3) == {"late": []}

    def test_missing_object_raises(self, storage):
        with pytest.raises(StorageError):
            storage.read_state(9, 9)

    def test_bytes_accounted(self, storage):
        storage.write_state(0, 1, ckpt())
        assert storage.bytes_written > 0


class TestCommit:
    def test_no_commit_initially(self, storage):
        assert storage.committed_epoch() is None

    def test_commit_roundtrip(self, storage):
        commit_epoch(storage, 4)
        assert storage.committed_epoch() == 4

    def test_recommit_replaces(self, storage):
        commit_epoch(storage, 1)
        commit_epoch(storage, 2)
        assert storage.committed_epoch() == 2

    def test_commit_of_missing_generations_is_not_restored(self, storage):
        storage.commit(4, 1.25, nprocs=1)
        assert storage.committed_epoch() is None

    def test_has_complete_epoch(self, storage):
        for rank in range(3):
            storage.write_state(rank, 1, ckpt(rank))
        assert not storage.has_complete_epoch(3, 1)  # logs missing
        for rank in range(3):
            storage.write_log(rank, 1, {})
        assert storage.has_complete_epoch(3, 1)


class TestGC:
    def test_gc_removes_stale_epochs(self, storage):
        for epoch in (1, 2, 3):
            for rank in range(2):
                storage.write_state(rank, epoch, ckpt(rank, epoch))
                storage.write_log(rank, epoch, {})
        removed = storage.gc(keep_epoch=3)
        assert removed == 8
        assert storage.has_complete_epoch(2, 3)
        with pytest.raises(StorageError):
            storage.read_state(0, 2)

    def test_gc_keeps_commit_record(self, storage):
        commit_epoch(storage, 3)
        storage.gc(keep_epoch=3)
        assert storage.committed_epoch() == 3


def _chunk_files(root):
    out = []
    for dirpath, _dirs, files in os.walk(os.path.join(root, "objects")):
        out.extend(os.path.join(dirpath, name) for name in files)
    return sorted(out)


class TestCorruption:
    def test_chunk_bitflip_detected_on_disk(self, tmp_path):
        storage = Storage(str(tmp_path))
        storage.write_state(0, 1, ckpt())
        (path,) = _chunk_files(str(tmp_path))
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(StorageError):
            storage.read_state(0, 1)

    def test_chunk_truncation_detected_on_disk(self, tmp_path):
        storage = Storage(str(tmp_path))
        storage.write_state(0, 1, ckpt())
        (path,) = _chunk_files(str(tmp_path))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(StorageError):
            storage.read_state(0, 1)

    def test_manifest_bitflip_detected_on_disk(self, tmp_path):
        storage = Storage(str(tmp_path))
        storage.write_state(0, 1, ckpt())
        path = os.path.join(
            str(tmp_path), "manifests", "rank0", "state", "gen00000001.mft"
        )
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FrameCorruptError):
            storage.read_state(0, 1)

    def test_manifest_checksum_rejected(self, storage):
        """A manifest whose frame is intact but whose inner checksum no
        longer matches its contents must be rejected, not trusted."""
        storage.write_state(0, 1, ckpt())
        storage.store.corrupt_manifest("rank0/state", 1)
        with pytest.raises(ManifestCorruptError):
            storage.read_state(0, 1)

    def test_overwrite_is_atomic_no_residue(self, tmp_path):
        storage = Storage(str(tmp_path))
        storage.write_state(0, 1, ckpt())
        storage.write_state(0, 1, ckpt())
        leftovers = [
            name
            for _dir, _dirs, files in os.walk(str(tmp_path))
            for name in files
            if ".tmp." in name
        ]
        assert leftovers == []
        assert storage.read_state(0, 1).epoch == 1


class TestFromConfig:
    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_store_follows_the_config(self, on_disk, tmp_path):
        from repro.runtime.config import RunConfig

        path = str(tmp_path / "ckpt") if on_disk else None
        storage = Storage.from_config(RunConfig(nprocs=1, storage_path=path, ckpt_keep_last=2))
        assert storage.path == path
        assert storage.store.retention.keep_last == 2
        assert storage.store.incremental and storage.store.codec.name == "none"
        for epoch in (1, 2, 3):
            commit_epoch(storage, epoch)
            storage.gc(keep_epoch=epoch)
        assert [r.epoch for r in storage.commit_history()] == [2, 3]
        if on_disk:
            assert Storage(path).committed_epoch() == 3


class TestCommitFallback:
    """Generation N torn or corrupt => recovery restarts from N-1."""

    def _two_committed_generations(self, storage, nprocs=2):
        for epoch in (1, 2):
            commit_epoch(storage, epoch, nprocs)
        return storage

    @pytest.fixture(params=["memory", "disk"])
    def deep_storage(self, request, tmp_path):
        path = None if request.param == "memory" else str(tmp_path / "stable")
        return Storage(path, keep_last=2)

    def test_newest_commit_wins_when_valid(self, deep_storage):
        self._two_committed_generations(deep_storage)
        assert deep_storage.committed_epoch() == 2

    def test_corrupt_manifest_falls_back_to_previous_generation(self, deep_storage):
        self._two_committed_generations(deep_storage)
        deep_storage.store.corrupt_manifest("rank1/state", 2)
        assert deep_storage.committed_epoch() == 1

    def test_torn_generation_falls_back_to_previous_generation(self, deep_storage):
        self._two_committed_generations(deep_storage)
        # A torn write leaves chunks but no manifest: delete the manifest.
        deep_storage.store.delete_generation("rank0/state", 2)
        assert deep_storage.committed_epoch() == 1

    def test_all_generations_corrupt_means_no_commit(self, deep_storage):
        self._two_committed_generations(deep_storage)
        for epoch in (1, 2):
            deep_storage.store.corrupt_manifest("rank0/state", epoch)
        assert deep_storage.committed_epoch() is None

    def test_keep_last_one_cannot_fall_back(self):
        """The paper's keep-only-latest discipline has no N-1 to return to
        (documented behaviour, the reason ckpt_keep_last=2 exists)."""
        storage = Storage(None)  # keep_last=1
        self._two_committed_generations(storage)
        storage.gc(keep_epoch=2)
        storage.store.corrupt_manifest("rank0/state", 2)
        assert storage.committed_epoch() is None


class TestCheckpointCrashInjection:
    def test_after_chunks_zero_writes_nothing(self):
        from repro.errors import ProcessKilled
        from repro.simmpi.failures import FailureSchedule

        storage = Storage(None)
        storage.store = CheckpointStore(MemoryBackend(), chunk_size=64)
        storage.crash_plan = FailureSchedule.during_checkpoint(
            rank=0, epoch=1, after_chunks=0
        )
        with pytest.raises(ProcessKilled):
            storage.write_state(0, 1, ckpt())
        assert storage.store.backend.keys("objects/") == []
        assert not storage.store.has_generation("rank0/state", 1)

    def test_after_chunks_counts_persisted_chunks(self):
        from repro.errors import ProcessKilled
        from repro.simmpi.failures import FailureSchedule

        # A first generation's stream deflates against itself to 15 bytes.
        storage = Storage(None)
        storage.store = CheckpointStore(MemoryBackend(), chunk_size=4)
        storage.crash_plan = FailureSchedule.during_checkpoint(
            rank=0, epoch=1, after_chunks=2
        )
        with pytest.raises(ProcessKilled):
            storage.write_state(0, 1, ckpt())
        assert len(storage.store.backend.keys("objects/")) == 2
        assert not storage.store.has_generation("rank0/state", 1)

    def test_crash_fires_once(self):
        from repro.errors import ProcessKilled
        from repro.simmpi.failures import FailureSchedule

        storage = Storage(None)
        storage.crash_plan = FailureSchedule.during_checkpoint(rank=0, epoch=1)
        with pytest.raises(ProcessKilled):
            storage.write_state(0, 1, ckpt())
        # The next attempt's write of the same generation succeeds.
        manifest = storage.write_state(0, 1, ckpt())
        assert manifest is not None
        assert storage.read_state(0, 1).epoch == 1


class TestWipe:
    def test_wipe(self, storage):
        commit_epoch(storage, 1)
        storage.wipe()
        assert storage.committed_epoch() is None


class TestCheckpointData:
    def test_describe(self):
        data = CheckpointData(
            rank=1, epoch=2, protocol=None,
            early_ids={0: [1, 2]}, app_state={"x": 1},
        )
        text = data.describe()
        assert "rank=1" in text and "early=2" in text and "app=yes" in text
