"""Chunk codec and backend contracts."""

import os

import pytest

from repro.ckpt import (
    DirectoryBackend,
    MemoryBackend,
    get_chunk_codec,
)
from repro.errors import ConfigError, StorageError

PAYLOADS = [b"", b"x", b"hello world" * 100, bytes(range(256)) * 64]


class TestCodecs:
    @pytest.mark.parametrize("name", ["none", "zlib", "lzma"])
    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_roundtrip(self, name, payload):
        codec = get_chunk_codec(name)
        assert codec.decode(codec.encode(payload)) == payload

    def test_compression_compresses_redundant_data(self):
        redundant = b"0123456789" * 10_000
        for name in ("zlib", "lzma"):
            assert len(get_chunk_codec(name).encode(redundant)) < len(redundant) // 10

    def test_unknown_codec_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown checkpoint codec"):
            get_chunk_codec("snappy")


@pytest.fixture(params=["memory", "directory"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return DirectoryBackend(str(tmp_path / "blobs"))


class TestBackends:
    def test_put_get_roundtrip(self, backend):
        backend.put("objects/ab/abcdef", b"payload")
        assert backend.get("objects/ab/abcdef") == b"payload"
        assert backend.exists("objects/ab/abcdef")
        assert backend.size("objects/ab/abcdef") == len(b"payload")

    def test_missing_key_raises(self, backend):
        assert not backend.exists("nope")
        with pytest.raises(StorageError):
            backend.get("nope")
        with pytest.raises(StorageError):
            backend.size("nope")

    def test_delete_is_idempotent(self, backend):
        backend.put("a/b", b"x")
        backend.delete("a/b")
        backend.delete("a/b")
        assert not backend.exists("a/b")

    def test_keys_prefix_filter(self, backend):
        backend.put("objects/aa/one", b"1")
        backend.put("objects/bb/two", b"2")
        backend.put("manifests/s/gen1.mft", b"3")
        assert backend.keys("objects/") == ["objects/aa/one", "objects/bb/two"]
        assert len(backend.keys()) == 3

    def test_overwrite_replaces(self, backend):
        backend.put("k", b"old")
        backend.put("k", b"new-and-longer")
        assert backend.get("k") == b"new-and-longer"

    def test_wipe(self, backend):
        backend.put("x/y", b"1")
        backend.wipe()
        assert backend.keys() == []

    def test_directory_publish_leaves_no_tmp(self, tmp_path):
        backend = DirectoryBackend(str(tmp_path))
        backend.put("deep/nested/key", b"data")
        leftovers = [
            name
            for _dir, _dirs, files in os.walk(str(tmp_path))
            for name in files
            if ".tmp." in name
        ]
        assert leftovers == []
