"""The messaging surface shared by every variant: ``CommLike``.

The paper's architecture (Figure 2) interposes a *thin, uniform* MPI
surface between the application and the library.  This module pins that
surface down as a structural protocol so an application written against
``ctx.mpi`` runs unmodified under all four build variants of Section 6.2:

* :class:`CommLike` — a ``typing.Protocol`` (``@runtime_checkable``, so
  ``isinstance(x, CommLike)`` works) naming the point-to-point calls, the
  eight collectives plus barrier, the persistent-object constructors, and
  the two protocol hooks (``potential_checkpoint`` / ``nondet``).
* :class:`RawCommAdapter` — the V0 "Unmodified Program" implementation:
  the :class:`~repro.protocol.stages.pipeline.ProtocolPipeline` with the
  *empty* stage stack.  Every call is a pass-through over a raw
  :class:`~repro.simmpi.comm.Comm` with no piggybacking, no logging and
  no checkpoints; the protocol hooks are no-ops, so instrumented
  applications still run (and uninstrumented ones pay nothing).  V0 and
  V1–V3 share one code path — the pipeline — differing only in which
  stages are stacked.

The V1–V3 implementation is the same
:class:`~repro.protocol.stages.pipeline.ProtocolPipeline` with the
protocol stages present.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.protocol.stages.pipeline import ProtocolPipeline, RawHandle  # noqa: F401
from repro.simmpi.comm import Comm
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.op import Op


@runtime_checkable
class CommLike(Protocol):
    """Structural type of the application-facing messaging surface.

    ``ProtocolPipeline`` and ``RawCommAdapter`` both satisfy it;
    ``C3AppContext.mpi`` is typed against it.  Handles returned by ``isend``/``irecv`` and by the
    constructors are opaque — only this interface may consume them.
    """

    # -- point-to-point ------------------------------------------------- #

    def send(self, payload: Any, dest: int, tag: int = 0) -> None: ...

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Any: ...

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any: ...

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any: ...

    def wait(self, req: Any) -> Any: ...

    def test(self, req: Any) -> bool: ...

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ) -> Any: ...

    # -- the eight collectives, plus barrier ---------------------------- #

    def bcast(self, obj: Any, root: int = 0, comm: Any = None) -> Any: ...

    def reduce(self, obj: Any, op: Op, root: int = 0, comm: Any = None) -> Any: ...

    def allreduce(self, obj: Any, op: Op, comm: Any = None) -> Any: ...

    def gather(self, obj: Any, root: int = 0, comm: Any = None) -> Any: ...

    def allgather(self, obj: Any, comm: Any = None) -> list[Any]: ...

    def scatter(self, objs: list[Any] | None, root: int = 0, comm: Any = None) -> Any: ...

    def alltoall(self, objs: list[Any], comm: Any = None) -> list[Any]: ...

    def scan(self, obj: Any, op: Op, comm: Any = None) -> Any: ...

    def barrier(self, comm: Any = None) -> None: ...

    # -- persistent opaque objects (Section 5.2) ------------------------ #

    def comm_dup(self, parent: Any = None) -> Any: ...

    def comm_split(self, color: int, key: int | None = None, parent: Any = None) -> Any: ...

    def op_create(self, name: str, fn: Callable[[Any, Any], Any]) -> Any: ...

    def comm_rank(self, handle: Any = None) -> int: ...

    def comm_size(self, handle: Any = None) -> int: ...

    # -- protocol hooks ------------------------------------------------- #

    def potential_checkpoint(self) -> bool: ...

    def nondet(self, compute: Callable[[], Any]) -> Any: ...


class RawCommAdapter(ProtocolPipeline):
    """``CommLike`` over a bare simulator communicator (variant V0).

    The empty stage stack: no piggyback word is attached to any message
    and no protocol state is kept; the cost of every call is exactly the
    underlying library call.  ``potential_checkpoint`` always answers
    False and ``nondet`` simply computes — so a fault-tolerance-
    instrumented application runs unmodified, it just is not protected.
    """

    def __init__(self, comm: Comm) -> None:
        super().__init__(comm, stages=())
