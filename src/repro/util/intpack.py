"""Word packing of the protocol's per-message integers.

Three layouts live here: the 32-bit piggyback word every application
message carries, the control word every protocol token travels as, and
the block of 32-bit command words one round of a command exchange moves.

**Piggyback word** (paper Section 4.2, final optimisation).

The paper observes that because at most one global checkpoint is in progress
at any time, process epochs differ by at most one, so a single *color* bit
suffices in place of the full epoch number.  Together with the sender's
``amLogging`` flag and a 30-bit per-epoch message ID, the whole piggyback
payload fits in one 32-bit integer, the only form a message carries:

    bit 31 : epoch color (0 = "green", 1 = "red"; color = epoch & 1)
    bit 30 : amLogging flag of the sender
    bits 29..0 : messageID (unique per sender per epoch)

``COLOR_BIT``, ``LOGGING_BIT`` and ``MAX_MESSAGE_ID`` (also the ID's mask)
are the layout; the protocol pipeline builds and tests the word with
them.  A message ID beyond 30 bits raises
:class:`~repro.errors.PiggybackError` when the send is stamped — the paper
notes a single process is unlikely to send more than a billion messages
between checkpoints, but we fail loudly rather than wrap.

**Control word** (Section 4.1's tokens).  A token is its kind, the full
epoch it belongs to (not the colour: token epochs are compared exactly)
and, for ``mySendCount``, a count; the sender is the envelope's source.
One non-negative 63-bit integer, so it sizes as one 8-byte word:

    bits 62..31 : count (0 for every kind but mySendCount)
    bits 30..3  : epoch
    bits 2..0   : kind

A field outside its width raises :class:`~repro.errors.ProtocolError`.

**Word block** (Section 4.5's command exchange).  Each rank's entry is one
32-bit word, and a round ships the words it forwards as one ``bytes`` of
little-endian uint32s, 4 B per word, the way an MPI_Allgather of
``MPI_UINT32_T`` would.  A ``bytes`` block is sized by its length; one int
holding several words would not be (``sizeof`` prices every int at 8 B).
A word outside ``[0, 2**32)`` raises :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import struct

from repro.errors import ProtocolError

#: Largest encodable per-epoch message ID (30 bits); masks the ID field.
MAX_MESSAGE_ID: int = (1 << 30) - 1
#: The piggyback word's epoch-color and amLogging bits.
COLOR_BIT = 1 << 31
LOGGING_BIT = 1 << 30


#: Control-word field widths: kind, epoch, count (3 + 28 + 32 = 63 bits).
CONTROL_KIND_BITS = 3
CONTROL_EPOCH_BITS = 28
MAX_CONTROL_EPOCH: int = (1 << CONTROL_EPOCH_BITS) - 1
MAX_CONTROL_COUNT: int = (1 << 32) - 1

_KIND_MASK = (1 << CONTROL_KIND_BITS) - 1
_COUNT_SHIFT = CONTROL_KIND_BITS + CONTROL_EPOCH_BITS
_MAX_CONTROL_WORD = (1 << 63) - 1


def pack_control(kind: int, epoch: int, count: int = 0) -> int:
    """Pack one control token ``(kind, epoch, count)`` into a 63-bit word."""
    if not 0 <= kind <= _KIND_MASK:
        raise ProtocolError(f"control kind {kind!r} outside [0, {_KIND_MASK}]")
    if not 0 <= epoch <= MAX_CONTROL_EPOCH:
        raise ProtocolError(
            f"control epoch {epoch!r} outside [0, {MAX_CONTROL_EPOCH}]"
        )
    if not 0 <= count <= MAX_CONTROL_COUNT:
        raise ProtocolError(
            f"control count {count!r} outside [0, {MAX_CONTROL_COUNT}]"
        )
    return count << _COUNT_SHIFT | epoch << CONTROL_KIND_BITS | kind


def unpack_control(word: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack_control`; returns ``(kind, epoch, count)``."""
    if type(word) is not int or not 0 <= word <= _MAX_CONTROL_WORD:
        raise ProtocolError(f"control word {word!r} is not a 63-bit value")
    return (
        word & _KIND_MASK,
        word >> CONTROL_KIND_BITS & MAX_CONTROL_EPOCH,
        word >> _COUNT_SHIFT,
    )


#: Bytes per word of a packed word block.
WORD_BYTES = 4


def pack_words(words) -> bytes:
    """Pack 32-bit unsigned ``words`` into one little-endian block."""
    try:
        return struct.pack(f"<{len(words)}I", *words)
    except struct.error:
        bad = next(
            (w for w in words if not (isinstance(w, int) and 0 <= w < 1 << 32)), words
        )
        raise ProtocolError(f"word {bad!r} does not fit in 32 bits") from None


def unpack_words(block: bytes) -> tuple[int, ...]:
    """Inverse of :func:`pack_words`."""
    if len(block) % WORD_BYTES:
        raise ProtocolError(f"word block of {len(block)} B is not whole 32-bit words")
    return struct.unpack(f"<{len(block) // WORD_BYTES}I", block)
