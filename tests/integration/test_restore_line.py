"""Restore is one verified read: ``Storage.restore_line``.

The restart path picks the epoch to restore *by loading it*: each rank's
state and log goes through ``CheckpointStore.load`` once, which checks the
manifest and every chunk.  Every way a committed generation can be bad is a
typed ``StorageError`` that falls back to the previous commit; anything
else is a bug and propagates.
"""

import hashlib
import pickle

import pytest

import repro.ckpt.store as store_module
from repro.apps import laplace
from repro.ckpt.delta import chunk_digest
from repro.ckpt.manifest import GenerationManifest
from repro.errors import StorageError
from repro.runtime.config import RunConfig
from repro.runtime.driver import run_with_recovery
from repro.simmpi.failures import FailureSchedule
from repro.statesave.storage import Storage

from test_mid_checkpoint_crash import BASE, ring_app

CONFIG = RunConfig(**BASE)


def results_bytes(outcome):
    return pickle.dumps(outcome.results, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.fixture(scope="module")
def gold():
    return run_with_recovery(ring_app(), CONFIG)


def completed_store(codec="none"):
    """A store holding a finished run's committed epochs N-1 and N."""
    storage = Storage(None, keep_last=2, codec=codec)
    run_with_recovery(ring_app(), RunConfig(**BASE, ckpt_codec=codec), storage=storage)
    newest = storage.commit_history()[-1].epoch
    assert storage.commit_history()[-2].epoch == newest - 1
    return storage, newest


def own_chunk_key(storage, stream, epoch):
    """A chunk of ``stream``'s generation ``epoch`` that no other retained
    generation references (so breaking it breaks that generation only)."""
    store = storage.store
    others = {
        ref.digest
        for other in store.streams()
        for gen in store.generations(other)
        if (other, gen) != (stream, epoch)
        for ref in store.read_manifest(other, gen).chunks
    }
    manifest = store.read_manifest(stream, epoch)
    (ref, *_rest) = [ref for ref in manifest.chunks if ref.digest not in others]
    return store._chunk_key(ref.digest, manifest.codec)


def flip_byte(blob, at):
    broken = bytearray(blob)
    broken[at] ^= 0xFF
    return bytes(broken)


def corrupt(storage, mode, epoch):
    """Break rank 1's state generation ``epoch`` in one of the ways a
    generation can be bad."""
    store, backend = storage.store, storage.store.backend
    stream = "rank1/state"
    manifest_key = store._manifest_key(stream, epoch)
    if mode == "missing-manifest":
        store.delete_generation(stream, epoch)
    elif mode == "frame-crc":
        blob = backend.get(manifest_key)
        backend.put(manifest_key, flip_byte(blob, len(blob) - 1))
    elif mode == "manifest-checksum":
        store.corrupt_manifest(stream, epoch)
    elif mode == "missing-chunk":
        backend.delete(own_chunk_key(storage, stream, epoch))
    elif mode == "decode":
        backend.put(own_chunk_key(storage, stream, epoch), b"not a zlib stream")
    elif mode == "length":
        key = own_chunk_key(storage, stream, epoch)
        backend.put(key, backend.get(key)[:-1])
    elif mode == "digest":
        key = own_chunk_key(storage, stream, epoch)
        backend.put(key, flip_byte(backend.get(key), 0))
    else:  # pragma: no cover - parametrisation typo
        raise ValueError(mode)


MODES = [
    "missing-manifest", "frame-crc", "manifest-checksum",
    "missing-chunk", "decode", "length", "digest",
]


class TestTypedFallback:
    @pytest.mark.parametrize("mode", MODES)
    def test_each_corruption_restores_from_n_minus_1(self, gold, mode):
        codec = "zlib" if mode == "decode" else "none"
        storage, newest = completed_store(codec)
        corrupt(storage, mode, newest)
        with pytest.raises(StorageError):
            storage.read_state(1, newest)
        line = storage.restore_line(CONFIG.nprocs)
        assert line.epoch == newest - 1
        assert len(line.pairs) == CONFIG.nprocs
        out = run_with_recovery(
            ring_app(), RunConfig(**BASE, ckpt_codec=codec), storage=storage
        )
        assert out.attempts[0].started_from_epoch == newest - 1
        assert results_bytes(out) == results_bytes(gold)

    def test_non_storage_exception_propagates(self, monkeypatch):
        storage, _newest = completed_store()

        def broken_verify(self):
            raise RuntimeError("bug inside load")

        monkeypatch.setattr(GenerationManifest, "verify", broken_verify)
        with pytest.raises(RuntimeError, match="bug inside load"):
            storage.restore_line(CONFIG.nprocs)
        with pytest.raises(RuntimeError, match="bug inside load"):
            run_with_recovery(ring_app(), CONFIG, storage=storage)


class TestStoreWrittenUnderTheFormerDigest:
    def test_blake2b_store_restarts_from_scratch(self, gold, monkeypatch):
        """Chunks addressed by the former BLAKE2b digest fail content
        verification: a typed StorageError, and restart starts from scratch
        with the failure-free answer — never a silently wrong state."""
        storage = Storage(None, keep_last=2)
        with monkeypatch.context() as patch:
            patch.setattr(
                store_module, "chunk_digest",
                lambda data: hashlib.blake2b(data, digest_size=20).hexdigest(),
            )
            run_with_recovery(ring_app(), CONFIG, storage=storage)
        newest = storage.commit_history()[-1].epoch
        with pytest.raises(StorageError, match="content verification"):
            storage.read_state(0, newest)
        assert storage.restore_line(CONFIG.nprocs) is None
        out = run_with_recovery(ring_app(), CONFIG, storage=storage)
        assert out.attempts[0].started_from_epoch is None
        assert results_bytes(out) == results_bytes(gold)


class TestOneHashPerChunk:
    @pytest.mark.parametrize("app", ["ring", "laplace"])
    def test_restart_hashes_each_chunk_ref_of_the_epoch_once(self, app, monkeypatch):
        """Both rank-body paths (threaded ring, cooperative precompiled
        Laplace): the digests computed while choosing and loading the
        restored epoch equal its manifests' chunk refs — one each."""
        build = (
            ring_app if app == "ring"
            else lambda: laplace.build(laplace.LaplaceParams(n=32, iterations=140))
        )
        digests = []
        monkeypatch.setattr(
            store_module, "chunk_digest", lambda data: digests.append(1) or chunk_digest(data)
        )
        restores = []
        original = Storage.restore_line

        def counted(self, nprocs=None):
            digests.clear()
            line = original(self, nprocs)
            if line is not None:
                refs = sum(
                    len(self.store.read_manifest(self._stream(rank, kind), line.epoch).chunks)
                    for rank in range(len(line.pairs))
                    for kind in ("state", "log")
                )
                restores.append((line.epoch, len(digests), refs))
            return line

        monkeypatch.setattr(Storage, "restore_line", counted)
        out = run_with_recovery(
            build(), CONFIG, failures=FailureSchedule.single(time=0.008, rank=2)
        )
        assert out.restarts == 1
        assert out.attempts[1].started_from_epoch is not None
        ((epoch, hashed, refs),) = restores
        assert epoch == out.attempts[1].started_from_epoch
        assert hashed == refs > 0
