"""The messaging surface shared by every variant: ``CommLike``.

The paper's architecture (Figure 2) interposes a *thin, uniform* MPI
surface between the application and the library.  This module pins that
surface down as a structural protocol so an application written against
``ctx.mpi`` runs unmodified under all four build variants of Section 6.2:

* :class:`CommLike` — a ``typing.Protocol`` (``@runtime_checkable``, so
  ``isinstance(x, CommLike)`` works) naming the point-to-point calls, the
  eight collectives plus barrier, the persistent-object constructors, and
  the two protocol hooks.  Every call that can suspend the rank exists
  once, as a ``co_*`` generator (``yield from mpi.co_send(...)``); the
  calls that never suspend (``comm_dup``, ``op_create``, ``attach_buffer``,
  ``comm_rank``, ``comm_size``) are plain methods.
* :class:`RawCommAdapter` — the V0 "Unmodified Program" implementation:
  no protocol layer at all.  Every call is a pass-through over a raw
  :class:`~repro.simmpi.comm.Comm` with no piggybacking, no logging and
  no checkpoints; the protocol hooks are no-ops, so instrumented
  applications still run (and uninstrumented ones pay nothing).

The V1–V3 implementation is the
:class:`~repro.protocol.stages.pipeline.ProtocolPipeline`: its five
protocol concerns under V1, plus the checkpoint stage that a storage adds
under V2/V3.  Both implementations inherit the eight data collectives
and ``comm_rank``/``comm_size`` from
:class:`~repro.protocol.stages.base.SharedSurface`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.errors import ProtocolError
from repro.protocol.stages.base import LayerStats, SharedSurface
from repro.simmpi.comm import Comm
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.op import Op


@runtime_checkable
class CommLike(Protocol):
    """Structural type of the application-facing messaging surface.

    ``ProtocolPipeline`` and ``RawCommAdapter`` both satisfy it;
    ``C3AppContext.mpi`` is typed against it.  Handles returned by
    ``co_isend``/``co_irecv`` and by the constructors are opaque — only
    this interface may consume them.
    """

    # -- point-to-point (generators: ``yield from mpi.co_send(...)``) ---- #

    def co_send(self, payload: Any, dest: int, tag: int = 0) -> Any: ...

    def co_isend(self, payload: Any, dest: int, tag: int = 0) -> Any: ...

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any: ...

    def co_irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any: ...

    def co_wait(self, req: Any) -> Any: ...

    def co_test(self, req: Any) -> Any: ...

    def co_sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any: ...

    # -- the eight collectives, plus barrier (generators) --------------- #

    def co_bcast(self, obj: Any, root: int = 0, comm: Any = None) -> Any: ...

    def co_reduce(self, obj: Any, op: Op, root: int = 0, comm: Any = None) -> Any: ...

    def co_allreduce(self, obj: Any, op: Op, comm: Any = None) -> Any: ...

    def co_gather(self, obj: Any, root: int = 0, comm: Any = None) -> Any: ...

    def co_allgather(self, obj: Any, comm: Any = None) -> Any: ...

    def co_scatter(self, objs: list[Any] | None, root: int = 0, comm: Any = None) -> Any: ...

    def co_alltoall(self, objs: list[Any], comm: Any = None) -> Any: ...

    def co_scan(self, obj: Any, op: Op, comm: Any = None) -> Any: ...

    def co_barrier(self, comm: Any = None) -> Any: ...

    # -- persistent opaque objects (Section 5.2) ------------------------ #

    def comm_dup(self, parent: Any = None) -> Any: ...

    def co_comm_split(self, color: int, key: int | None = None, parent: Any = None) -> Any: ...

    def op_create(self, name: str, fn: Callable[[Any, Any], Any]) -> Any: ...

    def comm_rank(self, handle: Any = None) -> int: ...

    def comm_size(self, handle: Any = None) -> int: ...

    def attach_buffer(self, nbytes: int) -> None: ...

    # -- protocol hooks (generators) ------------------------------------ #

    def co_potential_checkpoint(self) -> Any: ...

    def co_nondet(self, compute: Callable[[], Any]) -> Any: ...


class RawHandle:
    """Opaque handle over a raw communicator or op (the V0 analogue of a
    pseudo-handle: same ``handle_id`` surface, no record/replay)."""

    __slots__ = ("kind", "handle_id", "_live")

    def __init__(self, kind: str, handle_id: int, live: Any) -> None:
        self.kind = kind
        self.handle_id = handle_id
        self._live = live


class RawCommAdapter(SharedSurface):
    """``CommLike`` over a bare simulator communicator (variant V0).

    No piggyback word is attached to any message and no protocol state is
    kept; the cost of every call is exactly the underlying library call.
    ``co_potential_checkpoint`` always answers False and ``co_nondet``
    simply computes — so a fault-tolerance-instrumented application runs
    unmodified, it just is not protected.  ``stats`` counts sends,
    receives and collectives as the pipeline does.
    """

    def __init__(self, comm: Comm) -> None:
        self.comm = comm
        self.stats = LayerStats()
        #: Set by the application context; V0 never checkpoints, so
        #: nothing calls it.
        self.state_provider: Optional[Callable[[], Any]] = None
        self._comm_send = comm.co_send
        self._comm_recv = comm.co_recv
        self._next_handle_id = 0

    def _comm_of(self, handle: Any) -> Comm:
        if handle is None:
            return self.comm
        live = getattr(handle, "_live", None)
        if not isinstance(live, Comm):
            raise ProtocolError(f"not a communicator handle: {handle!r}")
        return live

    def _new_handle(self, kind: str, live: Any) -> RawHandle:
        handle = RawHandle(kind, self._next_handle_id, live)
        self._next_handle_id += 1
        return handle

    # -- point-to-point -------------------------------------------------- #

    def co_send(self, payload: Any, dest: int, tag: int = 0):
        self.stats.sends += 1
        return self._comm_send(payload, dest, tag)

    def co_isend(self, payload: Any, dest: int, tag: int = 0):
        self.stats.sends += 1
        return self.comm.isend(payload, dest, tag)
        yield  # pragma: no cover -- marks this function as a generator

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        self.stats.receives += 1
        return self._comm_recv(source, tag)

    def co_irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        return self.comm.irecv(source, tag)
        yield  # pragma: no cover

    def co_wait(self, req: Any):
        # A receive counts when its completion is first seen, here or in
        # co_test (send requests are complete at creation).
        if not req.completed:
            self.stats.receives += 1
        return req.co_wait()

    def co_test(self, req: Any):
        if not req.completed and req.test():
            self.stats.receives += 1
        return req.completed
        yield  # pragma: no cover

    def co_sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ):
        self.stats.sends += 1
        self.stats.receives += 1
        return self.comm.co_sendrecv(payload, dest, recv_source, send_tag, recv_tag)

    # -- collectives: the communicator's own ------------------------------ #

    def _co_coll(self, kind: str, comm: Any, *args: Any):
        self.stats.collectives += 1
        return getattr(self._comm_of(comm), "co_" + kind)(*args)

    def co_barrier(self, comm: Any = None):
        return self._co_coll("barrier", comm)

    # -- persistent objects: plain handles, nothing recorded -------------- #

    def comm_dup(self, parent: Any = None) -> Any:
        return self._new_handle("comm", self._comm_of(parent).dup())

    def co_comm_split(self, color: int, key: int | None = None, parent: Any = None):
        child = yield from self._comm_of(parent).co_split(color, key)
        return None if child is None else self._new_handle("comm", child)

    def op_create(self, name: str, fn: Callable[[Any, Any], Any]) -> Any:
        return self._new_handle("op", Op.create(name, fn))

    def attach_buffer(self, nbytes: int) -> None:
        pass

    # -- protocol hooks: no-ops ------------------------------------------- #

    def co_potential_checkpoint(self):
        return False
        yield  # pragma: no cover

    def co_nondet(self, compute: Callable[[], Any]):
        return compute()
        yield  # pragma: no cover

    def request_checkpoint_now(self) -> None:
        raise ProtocolError("request_checkpoint_now needs a checkpoint stage (initiator-only)")

    def release(self) -> None:
        """Drop the application context's state provider (see
        ``ProtocolPipeline.release``)."""
        self.state_provider = None
