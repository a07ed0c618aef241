"""MPI-library state record/replay (paper Section 5.2).

The layer cannot serialise the library's internal state, and does not need
to: "all that is required is that the application's view of the library
remains consistent before and after restart."  For *persistent* opaque
objects (communicators, user-defined ops, attached buffers, ...) the layer
records the name and arguments of every creating/mutating call in an
:class:`MpiStateLog`.  The log rides inside each local checkpoint; on
restart :class:`PersistentObjects` replays it against a fresh library
instance, re-binding every :class:`PseudoHandle` to a functionally
identical object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ProtocolError, RecoveryError
from repro.protocol.pseudo_handles import PseudoHandle
from repro.simmpi.comm import Comm
from repro.simmpi.op import Op
from repro.util.serialization import Positional

#: Pseudo-handle id denoting the world communicator.
WORLD_HANDLE = -1

#: ``PersistentObjects._restored``'s answer when a creation is new (any
#: handle, ``None`` included, is the restored one to hand back).
_FRESH = object()


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


class PersistentObjects:
    """One process's persistent MPI objects behind pseudo-handles.

    Each creation makes the live object, records the call in :attr:`log`
    and registers the handle.  :meth:`co_restore` re-executes the restored
    log against the fresh library and then arms the *creation cursor*:
    applications that restart from the top (the manual-state path)
    re-execute their pre-checkpoint ``comm_dup``/``comm_split``/...
    calls, and while the cursor has records left such a call gets the
    restored handle back instead of making a new object.  The precompiled
    path resumes past those calls and disables the cursor
    (:meth:`skip_creation_replay`).
    """

    def __init__(self, comm: Comm) -> None:
        self.comm = comm
        self.log = MpiStateLog()
        self.handles = HandleRegistry()
        #: Creation cursor: None == disabled (fresh start or precompiled
        #: resume), 0 after :meth:`co_restore`.
        self.cursor: Optional[int] = None

    def raw_comm(self, handle_id: int) -> Comm:
        """The live communicator behind a pseudo-handle id."""
        if handle_id == WORLD_HANDLE:
            return self.comm
        handle = self.handles.by_id.get(handle_id)
        if handle is None or handle._live is None:
            raise ProtocolError(f"unknown or unbound communicator handle {handle_id}")
        return handle._live

    # -- creation ------------------------------------------------------- #

    def _restored(self, *fns: str) -> Any:
        """The restored handle a re-executed creation gets back (``None``
        for a call that made no handle), or ``_FRESH`` when the cursor is
        off or spent."""
        cursor = self.cursor
        if cursor is None or cursor >= len(self.log.records):
            return _FRESH
        record = self.log.records[cursor]
        if record.fn not in fns:
            raise RecoveryError(
                f"rank {self.comm.rank}: re-executed creation {fns[0]!r} but "
                f"the restored call record says {record.fn!r}"
            )
        self.cursor = cursor + 1
        return self.handles.by_id[record.handle_id] if record.handle_id >= 0 else None

    def _bind(self, kind: str, live: Any, fn: str, args: tuple) -> PseudoHandle:
        handle = self.log.new_handle(kind)
        handle._live = live
        self.log.record(fn, args, handle)
        return self.handles.add(handle)

    def skip_creation_replay(self) -> None:
        """Disable creation-cursor matching (precompiled-application path)."""
        self.cursor = None

    def comm_dup(self, parent: Optional[PseudoHandle]) -> PseudoHandle:
        handle = self._restored("comm_dup")
        if handle is _FRESH:
            parent_id = parent.handle_id if parent is not None else WORLD_HANDLE
            live = self.raw_comm(parent_id).dup()
            handle = self._bind("comm", live, "comm_dup", (parent_id,))
        return handle

    def co_comm_split(self, color: int, key: int | None, parent: Optional[PseudoHandle]):
        handle = self._restored("comm_split", "comm_split_undefined")
        if handle is not _FRESH:
            return handle
        parent_id = parent.handle_id if parent is not None else WORLD_HANDLE
        child = yield from self.raw_comm(parent_id).co_split(color, key)
        if child is None:
            # Participation is still recorded: the split must be re-executed
            # collectively on restore even by ranks that got no child.
            self.log.record("comm_split_undefined", (parent_id, key))
            return None
        return self._bind("comm", child, "comm_split", (parent_id, color, key))

    def op_create(self, name: str, fn: Callable[[Any, Any], Any]) -> PseudoHandle:
        handle = self._restored("op_create")
        if handle is _FRESH:
            handle = self._bind("op", Op.create(name, fn), "op_create", (name,))
        return handle

    def attach_buffer(self, nbytes: int) -> None:
        if self._restored("attach_buffer") is _FRESH:
            self.log.record("attach_buffer", (nbytes,))

    # -- restore -------------------------------------------------------- #

    def co_restore(self, log: Optional[MpiStateLog], handles: list[PseudoHandle]):
        """Adopt a checkpoint's log and handles, re-execute every recorded
        call in order (paper: "each processor will replay these calls in
        order to recreate effectively the same persistent objects that
        existed at the time of the checkpoint"), then arm the creation
        cursor.

        ``comm_split`` is a collective over the parent communicator, so its
        re-execution is a scheduling point; the other creations are local.
        """
        self.log = log or MpiStateLog()
        self.handles.restore(handles)
        for rec in self.log.records:
            fn, args = rec.fn, rec.args
            if fn == "comm_dup":
                live = self.raw_comm(args[0]).dup()
            elif fn == "comm_split":
                parent_id, color, key = args
                live = yield from self.raw_comm(parent_id).co_split(color, key)
            elif fn == "comm_split_undefined":
                parent_id, key = args
                live = yield from self.raw_comm(parent_id).co_split(None, key)
            elif fn == "op_create":
                live = Op.lookup(args[0])
            elif fn == "attach_buffer":
                live = None
            else:
                raise RecoveryError(f"no executor for recorded MPI call {fn!r}")
            if rec.handle_id >= 0:
                handle = self.handles.by_id.get(rec.handle_id)
                if handle is None:
                    raise RecoveryError(
                        f"recorded call {fn!r} targets unknown handle {rec.handle_id}"
                    )
                handle._live = live
        self.cursor = 0
