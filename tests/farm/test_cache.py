"""The result cache: schema stamp, key layout, round trips, decode errors."""

import json

import numpy as np
import pytest

from repro.ckpt.backends import DirectoryBackend, MemoryBackend
from repro.errors import StorageError
from repro.farm.cache import META_KEY, ResultCache
from repro.farm.fingerprint import SCHEMA_VERSION

KEY = "ab" + "0" * 62


def test_fresh_backend_is_stamped_with_the_schema():
    backend = MemoryBackend()
    ResultCache(backend)
    assert json.loads(backend.get(META_KEY).decode("utf-8")) == {"schema": SCHEMA_VERSION}


def test_reopening_a_current_directory_keeps_its_entries(tmp_path):
    ResultCache(DirectoryBackend(str(tmp_path))).put(KEY, {"x": 1})
    reopened = ResultCache(DirectoryBackend(str(tmp_path)))
    assert reopened.has(KEY)
    assert reopened.get(KEY) == {"x": 1}


def test_results_are_sharded_by_the_first_two_key_characters():
    backend = MemoryBackend()
    ResultCache(backend).put(KEY, 7)
    assert backend.keys("results/") == [f"results/ab/{KEY}"]


def test_has_is_false_until_put():
    cache = ResultCache(MemoryBackend())
    assert not cache.has(KEY)
    cache.put(KEY, None)
    assert cache.has(KEY)
    assert cache.get(KEY) is None


def test_round_trip_preserves_arrays_and_nesting(tmp_path):
    cache = ResultCache(DirectoryBackend(str(tmp_path)))
    value = {"grid": np.arange(12.0).reshape(3, 4), "rows": [(1, "a"), (2, "b")]}
    cache.put(KEY, value)
    back = ResultCache(DirectoryBackend(str(tmp_path))).get(KEY)
    assert back["rows"] == value["rows"]
    assert back["grid"].dtype == value["grid"].dtype
    np.testing.assert_array_equal(back["grid"], value["grid"])


def test_corrupt_result_raises_storage_error():
    backend = MemoryBackend()
    cache = ResultCache(backend)
    cache.put(KEY, [1, 2, 3])
    blob = bytearray(backend.get(f"results/ab/{KEY}"))
    blob[-1] ^= 0xFF  # flip payload bits: the frame checksum no longer matches
    backend.put(f"results/ab/{KEY}", bytes(blob))
    with pytest.raises(StorageError, match="failed to decode"):
        cache.get(KEY)


def test_unreadable_metadata_is_refused():
    backend = MemoryBackend()
    backend.put(META_KEY, b"\xffnot json")
    with pytest.raises(StorageError, match="unreadable farm metadata"):
        ResultCache(backend)


def test_metadata_without_a_schema_is_refused():
    backend = MemoryBackend()
    backend.put(META_KEY, b"{}")
    with pytest.raises(StorageError, match="schema None"):
        ResultCache(backend)
