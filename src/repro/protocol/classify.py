"""Message classification (paper Definition 1 and Section 4.2).

Given the epoch of the sender at send time and the epoch of the receiver at
delivery-to-application time:

* **late** — sender epoch < receiver epoch (the paper's "in-flight");
* **intra-epoch** — equal epochs;
* **early** — sender epoch > receiver epoch (the paper's "inconsistent").

With the packed codec only the sender's epoch *color* is known; the paper's
rule resolves the ambiguity: same color ⇒ intra-epoch; different color ⇒
late if the receiver is currently logging, early otherwise.  Both paths are
implemented and property-tested against each other.
"""

from __future__ import annotations

import enum

from repro.errors import ProtocolError


class MessageClass(enum.Enum):
    LATE = "late"
    INTRA_EPOCH = "intra-epoch"
    EARLY = "early"


def classify_by_epoch(sender_epoch: int, receiver_epoch: int) -> MessageClass:
    """Classification from absolute epochs (full codec path)."""
    if sender_epoch < receiver_epoch:
        return MessageClass.LATE
    if sender_epoch == receiver_epoch:
        return MessageClass.INTRA_EPOCH
    return MessageClass.EARLY


def classify_by_color(
    sender_color: int, receiver_epoch: int, receiver_logging: bool
) -> MessageClass:
    """Classification from the color bit (packed codec path).

    Paper Section 4.2: "When the receiver is in a green epoch, and it
    receives a message from a sender in a green epoch, that message must be
    an intra-epoch message.  If the message is from a sender in a red epoch,
    ... if the receiver is not logging, the message must be an early
    message; otherwise, it is a late message."
    """
    if sender_color not in (0, 1):
        raise ProtocolError(f"invalid color {sender_color!r}")
    if (receiver_epoch & 1) == sender_color:
        return MessageClass.INTRA_EPOCH
    return MessageClass.LATE if receiver_logging else MessageClass.EARLY
