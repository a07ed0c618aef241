"""Message envelopes carried by the simulated network.

An :class:`Envelope` is what the transport moves between ranks.  It carries
the routing triple ``(source, dest, tag)`` within a communication context,
the payload, an optional piggyback word attached by the C3 protocol
layer, and bookkeeping used by the deterministic network model.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.simmpi.datatypes import (
    _FIXED_WIDTH,
    HEADER_BYTES,
    PIGGYBACK_PACKED_BYTES,
    sizeof,
)


class Envelope:
    """One in-flight message, sized once when it is built.

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
        The protocol layer's 32-bit piggyback word (an ``int``), or
        ``None`` for uninstrumented traffic.
    send_time:
        Virtual time at which the send was posted.
    deliver_time:
        Virtual time at which the network will hand the message to the
        destination mailbox (set by the network model).
    seq:
        Global monotone sequence number (deterministic tiebreaker).
    nbytes:
        Wire size: the payload's ``sizeof`` plus the header, plus the
        piggyback word when there is one.  Computed here unless given.
    """

    __slots__ = (
        "source", "dest", "tag", "context", "payload", "piggyback",
        "send_time", "deliver_time", "seq", "nbytes",
    )

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        context: int,
        payload: Any,
        piggyback: Any = None,
        send_time: float = 0.0,
        deliver_time: float = 0.0,
        seq: int = 0,
        nbytes: int = -1,
    ) -> None:
        self.source = source
        self.dest = dest
        self.tag = tag
        self.context = context
        self.payload = payload
        self.piggyback = piggyback
        self.send_time = send_time
        self.deliver_time = deliver_time
        self.seq = seq
        if nbytes < 0:
            # ``sizeof``, with arrays, bytes and fixed-width scalars inline.
            kind = type(payload)
            if kind is np.ndarray:
                size = payload.nbytes
            elif kind is bytes:
                size = len(payload)
            else:
                size = _FIXED_WIDTH.get(kind)
                if size is None:
                    size = sizeof(payload)
            nbytes = size + HEADER_BYTES
            if piggyback is not None:
                nbytes += PIGGYBACK_PACKED_BYTES
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Envelope({self.source}->{self.dest} tag={self.tag} "
            f"ctx={self.context} bytes={self.nbytes} seq={self.seq} "
            f"pb={self.piggyback!r})"
        )
