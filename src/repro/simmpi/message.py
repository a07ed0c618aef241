"""Message envelopes carried by the simulated network.

An :class:`Envelope` is what the transport moves between ranks.  It carries
the routing triple ``(source, dest, tag)`` within a communication context,
the payload, an optional piggyback word/tuple attached by the C3 protocol
layer, and bookkeeping used by the deterministic network model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.simmpi.datatypes import HEADER_BYTES, sizeof


@dataclass(slots=True)
class Envelope:
    """One in-flight message.

    Attributes
    ----------
    source, dest:
        World ranks of the sender and receiver.
    tag:
        Application tag (>= 0) or reserved negative tag.
    context:
        Communication context id (communicator isolation, like MPI's
        context id); matching requires equal contexts.
    payload:
        The application object being transported.
    piggyback:
        Data attached by the protocol layer (packed int or tuple), or
        ``None`` for uninstrumented traffic.
    send_time:
        Virtual time at which the send was posted.
    deliver_time:
        Virtual time at which the network will hand the message to the
        destination mailbox (set by the network model).
    seq:
        Global monotone sequence number (deterministic tiebreaker).
    """

    source: int
    dest: int
    tag: int
    context: int
    payload: Any
    piggyback: Any = None
    send_time: float = 0.0
    deliver_time: float = 0.0
    seq: int = 0
    nbytes: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            self.nbytes = sizeof(self.payload) + HEADER_BYTES
            if self.piggyback is not None:
                # Packed codec: one 32-bit word; full codec: ~12 bytes
                # (paper Section 4.2's two designs).
                self.nbytes += 4 if isinstance(self.piggyback, int) else 12

    def routing(self) -> tuple[int, int, int, int]:
        """The matching tuple ``(source, dest, tag, context)``."""
        return (self.source, self.dest, self.tag, self.context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope({self.source}->{self.dest} tag={self.tag} "
            f"ctx={self.context} bytes={self.nbytes} seq={self.seq} "
            f"pb={self.piggyback!r})"
        )
