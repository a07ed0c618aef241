"""Tests for framed, checksummed checkpoint serialization."""

import io
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.serialization import (
    FrameCorruptError,
    atomic_write_bytes,
    dumps_framed,
    loads_framed,
    read_frame,
    write_frame,
)


class TestRoundtrip:
    def test_simple_object(self):
        assert loads_framed(dumps_framed({"a": 1})) == {"a": 1}

    def test_numpy_array(self):
        arr = np.arange(100, dtype=np.float64).reshape(10, 10)
        out = loads_framed(dumps_framed(arr))
        assert np.array_equal(out, arr)

    def test_aliasing_preserved(self):
        """Pickle memoisation: two references to one object stay one object
        after restore — the Python analogue of the paper's same-virtual-
        address pointer guarantee (Section 5.1.4)."""
        shared = [1, 2, 3]
        obj = {"x": shared, "y": shared}
        out = loads_framed(dumps_framed(obj))
        assert out["x"] is out["y"]
        out["x"].append(4)
        assert out["y"] == [1, 2, 3, 4]

    def test_multiple_frames_in_stream(self):
        buf = io.BytesIO()
        write_frame(buf, "one")
        write_frame(buf, {"two": 2})
        buf.seek(0)
        assert read_frame(buf) == "one"
        assert read_frame(buf) == {"two": 2}
        with pytest.raises(EOFError):
            read_frame(buf)

    def test_read_frame_eof(self):
        with pytest.raises(EOFError):
            read_frame(io.BytesIO(b""))


class TestCorruptionDetection:
    def test_truncated_header(self):
        blob = dumps_framed("payload")
        with pytest.raises(FrameCorruptError):
            read_frame(io.BytesIO(blob[:4]))

    def test_truncated_payload(self):
        blob = dumps_framed("payload")
        with pytest.raises(FrameCorruptError):
            loads_framed(blob[:-3])

    def test_bitflip_detected(self):
        blob = bytearray(dumps_framed({"key": "value"}))
        blob[-1] ^= 0xFF
        with pytest.raises(FrameCorruptError):
            loads_framed(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(dumps_framed(1))
        blob[0] ^= 0xFF
        with pytest.raises(FrameCorruptError):
            loads_framed(bytes(blob))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FrameCorruptError):
            loads_framed(dumps_framed(1) + b"junk")


@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
))
def test_roundtrip_property(obj):
    assert loads_framed(dumps_framed(obj)) == obj


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "sub" / "file.bin")
        atomic_write_bytes(path, b"first")
        assert open(path, "rb").read() == b"first"
        atomic_write_bytes(path, b"second")
        assert open(path, "rb").read() == b"second"

    def test_no_tmp_residue(self, tmp_path):
        path = str(tmp_path / "file.bin")
        atomic_write_bytes(path, b"data")
        assert os.listdir(tmp_path) == ["file.bin"]
