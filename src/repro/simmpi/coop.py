"""Execution-core plumbing: the sync-call driver and the current-proc registry.

The simulator runs every rank as a *generator* resumed by the scheduler on
one thread: ``Scheduler.grant`` calls ``task.send(None)``, and a ``yield``
anywhere down the rank's ``yield from`` chain suspends the whole rank.
Scheduling points are therefore ``yield`` statements inside ``co_*``
generator code, and a rank main is either a generator function or a
precompiled app (whose transformed code reaches the ``co_*`` forms).

Every suspending operation — on the simulator's ``Comm`` and ``Request``,
the protocol pipeline, the application context, precompiled code — exists
only in generator form.  :func:`drive` runs one for a synchronous caller
where it cannot suspend (a precompiled unit under test, an operation with
nothing to wait for); one that reaches a scheduling point raises and names
the fix.

The module also keeps the **current proc** registry, set by the scheduler
around every ``task.send``: all ranks share one thread, so "which rank is
executing" is this slot — the precompiler's active runtime lives on the
proc it names.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimMPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.process import Proc

_here = SimpleNamespace(proc=None)


def set_current_proc(proc: Optional["Proc"]) -> None:
    """Install ``proc`` as the rank being executed."""
    _here.proc = proc


def current_proc() -> Optional["Proc"]:
    """The rank the scheduler is currently resuming, if any."""
    return _here.proc


def drive(gen: Generator[None, None, Any]) -> Any:
    """Complete a ``co_*`` generator that must not suspend.

    A synchronous MPI call that reaches a real scheduling point cannot
    park the one simulator thread, so the first yield raises
    :class:`SimMPIError` naming the two rank-main forms that can suspend.
    """
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise SimMPIError(
        "synchronous MPI call reached a scheduling point; a rank main must be "
        "a generator function (yield from ctx.mpi.co_send(...)) or a "
        "precompiled app (PrecompiledApp(Precompiler([main]).compile(), "
        "entry=...))"
    )
