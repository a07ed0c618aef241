"""Pseudo-handles for MPI opaque objects (paper Section 5.2).

The protocol layer never lets the application touch the underlying library's
(here: the simulator's) opaque objects.  Instead the application holds
*pseudo-handles* — small indirection records owned by the layer — which the
layer can re-bind to fresh library objects after a restart, because the real
objects cannot be serialised.

Transient objects: requests.  :class:`PseudoRequest` records how the request
was created and how far it got; on restore the paper's rules apply:

* an ``isend`` pseudo-request is reinitialised so ``wait`` returns
  immediately (the message is either in the receiver's checkpoint or in its
  late-message log — either way the buffer is reusable);
* an ``irecv`` pseudo-request that already completed carries its payload in
  the checkpoint; one that had not completed is re-satisfied on restore from
  the late-message log or by re-posting the receive.

Persistent objects (communicators, user ops, ...) are handled by the
call-record replay mechanism in :mod:`repro.protocol.mpi_state`;
:class:`PseudoHandle` is their application-visible indirection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ProtocolError
from repro.util.serialization import Positional


@dataclass
class PseudoRequest(Positional):
    """Application-visible handle for a nonblocking operation.

    Picklable by design: the live simulator request (if any) is stored in a
    transient slot, not a constructor argument, so it is dropped at
    checkpoint time and re-bound on restore.
    """

    kind: str                      # "isend" | "irecv"
    req_id: int
    source: int = -1               # irecv: world rank or ANY_SOURCE
    tag: int = -1
    dest: int = -1                 # isend: world rank
    #: Completed payload captured at checkpoint time (irecv only).
    payload: Any = None
    has_payload: bool = False
    consumed: bool = False         # wait() already returned to the app

    def __post_init__(self) -> None:
        if self.kind not in ("isend", "irecv"):
            raise ProtocolError(f"unknown request kind {self.kind!r}")

    # Transient binding to the live simulator request; never pickled.
    _live: Any = field(default=None, init=False, repr=False, compare=False)


@dataclass
class PseudoHandle(Positional):
    """Application-visible handle for a persistent opaque object."""

    kind: str                      # "comm" | "op" | "datatype" | "errhandler"
    handle_id: int
    #: Transient binding to the live library object; re-bound by replay.
    _live: Any = field(default=None, init=False, repr=False, compare=False)


class RequestTable:
    """Tracks every pseudo-request whose lifetime may span a checkpoint."""

    def __init__(self) -> None:
        self._next = itertools.count()
        self.outstanding: dict[int, PseudoRequest] = {}

    def new(self, kind: str, **kwargs: Any) -> PseudoRequest:
        req = PseudoRequest(kind=kind, req_id=next(self._next), **kwargs)
        self.outstanding[req.req_id] = req
        return req

    def retire(self, req: PseudoRequest) -> None:
        req.consumed = True
        self.outstanding.pop(req.req_id, None)

    def snapshot(self) -> list[PseudoRequest]:
        """Checkpoint image of all outstanding requests.

        Only the creation arguments are captured — never a matched payload.
        In the paper's model a message is *delivered* when ``MPI_Wait``
        returns (Section 2), so a message matched before the checkpoint but
        waited after it is a post-checkpoint delivery: the protocol layer
        must classify it at wait time (late ⇒ logged and counted), and on
        restore the wait is re-satisfied from the late-message log or by a
        re-posted receive (Section 5.2's two Irecv reinitialisation rules).
        """
        return list(self.outstanding.values())

    def restore(self, image: list[PseudoRequest]) -> None:
        self.outstanding = {r.req_id: r for r in image}
        top = max(self.outstanding, default=-1) + 1
        self._next = itertools.count(top)
