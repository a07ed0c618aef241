"""Piggyback codecs (paper Section 4.2).

Every application message carries protocol metadata the receiver uses to
answer three questions: (1) is the message late, intra-epoch, or early?
(2) has the sender stopped logging?  (3) which message is this (for early-ID
suppression and deterministic replay)?

Two codecs implement the paper's two designs:

* :class:`FullCodec` — the straightforward encoding: the triple
  ``(epoch, amLogging, messageID)``.
* :class:`PackedCodec` — the optimised encoding: a single 32-bit integer
  holding the epoch **color** (epochs differ by at most one, so one bit
  suffices), the amLogging bit, and a 30-bit messageID.

Both decode to a common :class:`PiggybackInfo`.  The packed codec recovers
the sender's absolute epoch from the color and the receiver's own epoch —
which is exactly the inference the paper's classification rule performs, and
is validated against the full codec by property tests.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import PiggybackError
from repro.util.intpack import pack_piggyback, unpack_piggyback


class PiggybackInfo(NamedTuple):
    """Decoded piggyback data as seen by a receiver (one per received
    message: an immutable tuple, compared by value).

    ``epoch`` is the sender's epoch at send time.  With the packed codec it
    is reconstructed relative to the receiver's epoch and is exact as long as
    the protocol's invariant (|sender_epoch - receiver_epoch| <= 1) holds.
    """

    epoch: int
    am_logging: bool
    message_id: int

    @property
    def color(self) -> int:
        return self.epoch & 1


class FullCodec:
    """Unoptimised piggyback: carries the epoch number explicitly."""

    name = "full"
    #: Wire overhead in bytes (epoch int + flag + id int), paper Section 4.2.
    overhead_bytes = 12

    def encode(self, epoch: int, am_logging: bool, message_id: int) -> tuple[int, bool, int]:
        if epoch < 0 or message_id < 0:
            raise PiggybackError(f"negative epoch/messageID ({epoch}, {message_id})")
        return (epoch, am_logging, message_id)

    def decode(self, wire: tuple[int, bool, int], receiver_epoch: int) -> PiggybackInfo:
        epoch, am_logging, message_id = wire
        return PiggybackInfo(epoch=epoch, am_logging=am_logging, message_id=message_id)


class PackedCodec:
    """Optimised piggyback: one 32-bit word (color + amLogging + messageID)."""

    name = "packed"
    overhead_bytes = 4

    def encode(self, epoch: int, am_logging: bool, message_id: int) -> int:
        return pack_piggyback(epoch & 1, am_logging, message_id)

    def decode(self, wire: int, receiver_epoch: int) -> PiggybackInfo:
        color, am_logging, message_id = unpack_piggyback(wire)
        epoch = infer_epoch_from_color(color, receiver_epoch)
        return PiggybackInfo(epoch=epoch, am_logging=am_logging, message_id=message_id)


def infer_epoch_from_color(color: int, receiver_epoch: int) -> int:
    """Recover a sender's absolute epoch from its color bit.

    Because at most one global checkpoint is in progress at a time, the
    sender's epoch is the receiver's epoch, one less, or one more; exactly
    one of ``receiver_epoch`` and ``receiver_epoch ± 1`` has the observed
    color.  When colors match the epochs are equal; when they differ the
    classification rule (paper Section 4.2) disambiguates late vs early by
    the *receiver's* logging state — but for epoch reconstruction we only
    need the adjacent epoch with the right color, whose late/early meaning
    the classifier resolves.
    """
    if (receiver_epoch & 1) == color:
        return receiver_epoch
    # Different color: adjacent epoch.  Choose the lower one canonically;
    # the classifier corrects to +1 for early messages (see classify()).
    return receiver_epoch - 1 if receiver_epoch > 0 else receiver_epoch + 1


def get_codec(name: str):
    """Codec factory (``"full"`` or ``"packed"``)."""
    if name == "full":
        return FullCodec()
    if name == "packed":
        return PackedCodec()
    raise PiggybackError(f"unknown piggyback codec {name!r}")
