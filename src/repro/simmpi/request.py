"""Nonblocking communication requests (the MPI_Request analogue).

The simulator uses an eager-buffered send model (a reliable transport with
unbounded buffering, per the paper's assumption), so send requests complete
as soon as they are posted.  Receive requests complete when the matching
engine pairs them with a message.  ``co_wait`` is a scheduling point: the
calling rank blocks cooperatively until completion.

These are the *simulator's* request objects; the C3 protocol layer never
exposes them to applications directly — it wraps them in pseudo-handles
(:mod:`repro.protocol.pseudo_handles`) so they can be reinitialised on
restart without access to library internals (paper Section 5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.errors import SimMPIError
from repro.simmpi.mailbox import RecvDescriptor
from repro.simmpi.status import Status

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Comm


class Request:
    """Base class for nonblocking operation handles."""

    def __init__(self, comm: "Comm") -> None:
        self._comm = comm
        self._done = False

    def test(self) -> bool:
        """Nonblocking completion check."""
        raise NotImplementedError

    def co_wait(self):
        """Block (cooperatively) until complete; returns the received object
        for receive requests and ``None`` for send requests."""
        raise NotImplementedError

    @property
    def completed(self) -> bool:
        return self._done


class SendRequest(Request):
    """Handle for an eager send: complete at creation."""

    def __init__(self, comm: "Comm") -> None:
        super().__init__(comm)
        self._done = True

    def test(self) -> bool:
        return True

    def co_wait(self):
        # Even an already-complete wait is a scheduling point, matching the
        # behaviour of a real MPI progress engine.
        yield from self._comm.co_yield_point()
        return None


class RecvRequest(Request):
    """Handle for a posted nonblocking receive."""

    def __init__(self, comm: "Comm", desc: RecvDescriptor) -> None:
        super().__init__(comm)
        self._desc = desc
        self._payload: Any = None
        self.status: Optional[Status] = None

    def _harvest(self) -> None:
        if self._desc.matched is not None and not self._done:
            env = self._desc.matched
            self._payload = env.payload
            self.status = Status.from_envelope(env)
            self._done = True

    def test(self) -> bool:
        self._harvest()
        return self._done

    def co_wait(self):
        self._harvest()
        if not self._done:
            desc, proc, scheduler = self._desc, self._comm.proc, self._comm._scheduler
            scheduler.block(proc, desc)
            yield
            proc.block_info = None
            if desc.matched is None or proc.kill_flag:
                scheduler.fail_resume(proc, desc)
            self._harvest()
        return self._payload

    def cancel(self) -> bool:
        """Cancel if not yet matched; True on success."""
        if self._done:
            return False
        return self._comm._cancel_recv(self._desc)


def co_waitall(requests: list[Request]):
    """Wait for every request; returns their payloads in order."""
    payloads = []
    for req in requests:
        payloads.append((yield from req.co_wait()))
    return payloads


def co_waitany(requests: list[Request]):
    """Wait until at least one request completes; returns (index, payload).

    Polls in index order at each scheduling step, which is deterministic
    under the simulator's cooperative scheduler.
    """
    if not requests:
        raise SimMPIError("waitany on empty request list")
    while True:
        for i, req in enumerate(requests):
            if req.test():
                return i, (yield from req.co_wait())
        # Nothing ready: let the world make progress.
        yield from requests[0]._comm.co_yield_point()
