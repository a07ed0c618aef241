"""MPI-library state record/replay (paper Section 5.2).

The layer cannot serialise the library's internal state, and does not need
to: "all that is required is that the application's view of the library
remains consistent before and after restart."  For *persistent* opaque
objects (communicators, user-defined ops, attached buffers, ...) the layer
records the name and arguments of every creating/mutating call in a
:class:`CallRecordLog`.  The log rides inside each local checkpoint; on
restart it is replayed against a fresh library instance, re-binding every
:class:`PseudoHandle` to a functionally identical object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RecoveryError
from repro.protocol.pseudo_handles import PseudoHandle
from repro.util.serialization import Positional


@dataclass
class CallRecord(Positional):
    """One recorded library call: ``fn(*args)`` creating/mutating
    ``handle_id`` (or -1 for pure mutations like attach_buffer)."""

    fn: str
    args: tuple[Any, ...]
    handle_id: int = -1


@dataclass
class MpiStateLog(Positional):
    """The persistent-object call log for one process."""

    records: list[CallRecord] = field(default_factory=list)
    next_handle_id: int = 0

    def new_handle(self, kind: str) -> PseudoHandle:
        handle = PseudoHandle(kind=kind, handle_id=self.next_handle_id)
        self.next_handle_id += 1
        return handle

    def record(self, fn: str, args: tuple[Any, ...], handle: PseudoHandle | None = None) -> None:
        self.records.append(
            CallRecord(fn=fn, args=args, handle_id=handle.handle_id if handle else -1)
        )

    def replay(
        self,
        executors: dict[str, Callable[..., Any]],
        handles: dict[int, PseudoHandle],
    ) -> None:
        """Re-execute every recorded call in order (paper: "each processor
        will replay these calls in order to recreate effectively the same
        persistent objects that existed at the time of the checkpoint").

        ``executors`` maps call names to functions that perform the call
        against the fresh library; each returns the new live object (or
        None).  ``handles`` maps handle ids to the restored pseudo-handles
        whose ``_live`` slots get re-bound.
        """
        for rec in self.records:
            fn = executors.get(rec.fn)
            if fn is None:
                raise RecoveryError(f"no executor for recorded MPI call {rec.fn!r}")
            live = fn(*rec.args)
            if rec.handle_id >= 0:
                handle = handles.get(rec.handle_id)
                if handle is None:
                    raise RecoveryError(
                        f"recorded call {rec.fn!r} targets unknown handle {rec.handle_id}"
                    )
                handle._live = live


class HandleRegistry:
    """All live pseudo-handles of one process, keyed by id."""

    def __init__(self) -> None:
        self.by_id: dict[int, PseudoHandle] = {}

    def add(self, handle: PseudoHandle) -> PseudoHandle:
        self.by_id[handle.handle_id] = handle
        return handle

    def snapshot(self) -> list[PseudoHandle]:
        return list(self.by_id.values())

    def restore(self, handles: list[PseudoHandle]) -> None:
        self.by_id = {h.handle_id: h for h in handles}
