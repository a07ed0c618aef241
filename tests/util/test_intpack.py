"""Unit and property tests for the piggyback layout and control word packing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol import control as ctl
from repro.util.intpack import (
    COLOR_BIT,
    LOGGING_BIT,
    MAX_CONTROL_COUNT,
    MAX_CONTROL_EPOCH,
    MAX_MESSAGE_ID,
    pack_control,
    pack_words,
    unpack_control,
    unpack_words,
)


def test_piggyback_fields_partition_32_bits():
    """Color bit, logging bit and the 30-bit ID field tile one 32-bit word."""
    assert (COLOR_BIT, LOGGING_BIT, MAX_MESSAGE_ID) == (1 << 31, 1 << 30, (1 << 30) - 1)
    assert COLOR_BIT & LOGGING_BIT == COLOR_BIT & MAX_MESSAGE_ID == 0
    assert LOGGING_BIT & MAX_MESSAGE_ID == 0
    assert COLOR_BIT | LOGGING_BIT | MAX_MESSAGE_ID == (1 << 32) - 1


#: Every control kind the protocol sends.
CONTROL_KINDS = (
    ctl.PLEASE_CHECKPOINT, ctl.MY_SEND_COUNT, ctl.READY_TO_STOP_LOGGING,
    ctl.STOP_LOGGING, ctl.STOPPED_LOGGING, ctl.REPLAY_DONE,
)


class TestControlWord:
    @pytest.mark.parametrize("kind", CONTROL_KINDS)
    @pytest.mark.parametrize("epoch, count", [
        (0, 0), (1, 0), (1, 1), (7, 3), (2**20, 2**31),
        (MAX_CONTROL_EPOCH, 0), (0, MAX_CONTROL_COUNT),
        (MAX_CONTROL_EPOCH, MAX_CONTROL_COUNT),
    ])
    def test_roundtrip_every_kind(self, kind, epoch, count):
        word = pack_control(kind, epoch, count)
        assert type(word) is int and 0 <= word < 1 << 63
        assert unpack_control(word) == (kind, epoch, count)

    def test_layout(self):
        assert pack_control(0, 0) == 0
        assert pack_control(5, 0) == 5
        assert pack_control(0, 1) == 1 << 3
        assert pack_control(0, 0, 1) == 1 << 31
        assert pack_control(7, MAX_CONTROL_EPOCH, MAX_CONTROL_COUNT) == (1 << 63) - 1

    def test_count_defaults_to_zero(self):
        assert unpack_control(pack_control(3, 9)) == (3, 9, 0)

    @pytest.mark.parametrize("kind, epoch, count", [
        (-1, 0, 0), (8, 0, 0),
        (0, -1, 0), (0, MAX_CONTROL_EPOCH + 1, 0),
        (1, 0, -1), (1, 0, MAX_CONTROL_COUNT + 1),
    ])
    def test_out_of_range_field_rejected(self, kind, epoch, count):
        with pytest.raises(ProtocolError, match="outside"):
            pack_control(kind, epoch, count)

    @pytest.mark.parametrize("word", [-1, 1 << 63, 2.0, True, None, "8", (0, 1)])
    def test_unpack_rejects_what_no_pack_returns(self, word):
        with pytest.raises(ProtocolError, match="not a 63-bit value"):
            unpack_control(word)


@given(
    kind=st.sampled_from(CONTROL_KINDS),
    epoch=st.integers(0, MAX_CONTROL_EPOCH),
    count=st.integers(0, MAX_CONTROL_COUNT),
)
def test_control_roundtrip(kind, epoch, count):
    assert unpack_control(pack_control(kind, epoch, count)) == (kind, epoch, count)


@given(
    a=st.tuples(st.integers(0, 7), st.integers(0, MAX_CONTROL_EPOCH),
                st.integers(0, MAX_CONTROL_COUNT)),
    b=st.tuples(st.integers(0, 7), st.integers(0, MAX_CONTROL_EPOCH),
                st.integers(0, MAX_CONTROL_COUNT)),
)
def test_control_injective(a, b):
    """Distinct tokens encode to distinct words."""
    assert (pack_control(*a) == pack_control(*b)) == (a == b)


class TestWordBlock:
    def test_layout_is_little_endian_uint32(self):
        assert pack_words((1, 0xFFFFFFFF)) == b"\x01\x00\x00\x00\xff\xff\xff\xff"
        assert pack_words(()) == b""

    @pytest.mark.parametrize("word", [-1, 1 << 32, 0.5, "1"])
    def test_word_outside_32_bits_rejected(self, word):
        with pytest.raises(ProtocolError, match=f"word {word!r} does not fit"):
            pack_words((7, word))

    def test_partial_word_rejected(self):
        with pytest.raises(ProtocolError, match="not whole 32-bit words"):
            unpack_words(b"\x00" * 6)


@given(st.lists(st.integers(0, (1 << 32) - 1), max_size=64))
def test_words_roundtrip(words):
    block = pack_words(words)
    assert len(block) == 4 * len(words)
    assert unpack_words(block) == tuple(words)
