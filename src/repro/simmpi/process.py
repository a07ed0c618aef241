"""Simulated rank processes.

Each rank runs its application main as a generator (its ``task``) that
the scheduler resumes on the simulator's one thread, so **exactly one**
rank executes at any moment and every interleaving is a deterministic
function of the scheduler's policy and seed.  Inside a slice the rank has
a real Python call stack — which the precompiler's checkpoint runtime
walks with ``sys._getframe`` — that ends at the ``yield`` of its current
scheduling point.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simmpi.mailbox import Mailbox, RecvDescriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.simulator import Simulator


class ProcState(enum.Enum):
    NEW = "new"            # task not yet built
    RUNNABLE = "runnable"  # ready to run
    BLOCKED = "blocked"    # waiting on a receive (or explicit wait)
    DONE = "done"          # main returned normally
    DEAD = "dead"          # stopping fault injected
    ERRORED = "errored"    # main raised an application exception


# Tuple, not frozenset: ``in`` over a 3-tuple of enum members is identity
# comparisons in C, while a set probe routes through Enum.__hash__ (a
# Python-level call) — and delivery tests it once per message.
_FINISHED_STATES = (ProcState.DONE, ProcState.DEAD, ProcState.ERRORED)


class Proc:
    """One simulated rank: task, mailbox, and scheduling state."""

    def __init__(self, sim: "Simulator", rank: int, main: Callable[..., Any]) -> None:
        self.sim = sim
        self.rank = rank
        self.main = main
        self._state = ProcState.NEW
        self.mailbox = Mailbox(rank)
        #: The rank's resumable generator, resumed by ``Scheduler.grant``.
        self.task: Any = None
        #: Slot for the precompiler's active checkpoint runtime (all ranks
        #: share one thread, so the runtime lives on the rank).
        self.c3_runtime: Any = None
        self.kill_flag = False
        #: The receive this rank is blocked on, while it is blocked (set by
        #: ``Scheduler.block``; ``None`` once it resumes).  Kept
        #: as the posted descriptor and rendered only by :meth:`describe`.
        self.block_info: Optional[RecvDescriptor] = None
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: Number of scheduling slices this rank has received.
        self.slices = 0

    @property
    def state(self) -> ProcState:
        return self._state

    @state.setter
    def state(self, value: ProcState) -> None:
        """State transition; keeps the simulator's runnable index current.

        The scheduler loop reads a maintained rank-ordered list instead of
        rescanning all procs each step (O(nprocs) per scheduling point).
        Every transition assigns ``proc.state`` but the two per-message
        flips, blocking on a receive (``Scheduler.block``) and its wake
        (the simulator's delivery loop), which edit both directly.
        """
        old = self._state
        if value is old:
            return
        self._state = value
        if value is ProcState.RUNNABLE:
            insort(self.sim._runnable_ranks, self.rank)
        elif old is ProcState.RUNNABLE:
            ranks = self.sim._runnable_ranks
            ranks.pop(bisect_left(ranks, self.rank))

    @property
    def finished(self) -> bool:
        return self._state in _FINISHED_STATES

    def describe(self) -> str:
        """One line for deadlock reports, e.g. ``rank 1: blocked on
        recv(source=0, tag=3, ctx=0)``."""
        base = f"rank {self.rank}: {self._state.value}"
        desc = self.block_info
        if self._state is ProcState.BLOCKED and desc is not None:
            base += f" on recv(source={desc.source}, tag={desc.tag}, ctx={desc.context})"
        return base
