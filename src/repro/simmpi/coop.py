"""Execution-core plumbing: the sync-call driver and the current-proc registry.

The simulator runs every rank as a *generator* resumed by the scheduler on
one thread: ``Scheduler.grant`` calls ``task.send(None)``, and a ``yield``
anywhere down the rank's ``yield from`` chain suspends the whole rank.
Scheduling points are therefore ``yield`` statements inside ``co_*``
generator code, and a rank main is either a generator function or a
precompiled app (whose transformed code reaches the ``co_*`` forms).

:func:`drive` runs a ``co_*`` generator for a synchronous caller; it is
valid only where the call cannot suspend (a stage double, an operation
with nothing to wait for) and names the fix otherwise.

The module also keeps the **current proc** registry, set by the scheduler
around every ``task.send``: all ranks share one thread, so "which rank is
executing" is this slot — the precompiler's active runtime lives on the
proc it names.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

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


def co_method(target: Any, name: str) -> Callable[..., Generator[None, None, Any]]:
    """``target.co_<name>`` — bind it once and a call costs no lookup or
    wrapper frame.  A double with only the synchronous method gets a
    generator that calls it and never suspends (such stand-ins never
    block)."""
    co = getattr(target, "co_" + name, None)
    if co is not None:
        return co

    def co_sync(*args: Any, **kwargs: Any):
        return getattr(target, name)(*args, **kwargs)
        yield  # pragma: no cover - generator marker, unreachable

    return co_sync


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
