"""Cooperative-core plumbing: drivers and the current-proc registry.

The cooperative simulator core runs every rank as a *generator* resumed
by the scheduler on the one real thread.  Scheduling points are ``yield``
statements inside shared ``co_*`` generator code, so the sequence of
kill checks, trace emissions and clock charges is byte-for-byte the one
the threaded core executes — the two cores differ only in how control
moves between a suspended rank and the scheduler:

* **coop** — ``Scheduler.grant`` calls ``task.send(None)``; a ``yield``
  anywhere down the ``yield from`` chain suspends the whole rank.
* **threads** — a plain (non-generator) call path reaches the same
  ``co_*`` generator through :func:`drive`, which parks the rank thread
  on its baton gate at every ``yield`` — exactly what the historical
  synchronous primitives did.

:func:`run_inline` runs a generator that is *known* never to suspend
(e.g. collective algorithms over a fake in-test endpoint); it completes
in one step or raises.

The module also keeps a thread-local **current proc** registry, set by
the coop core around every ``task.send``.  Code that historically used
``threading.local`` for per-rank state (the precompiler's active
runtime) reads it first: under coop all ranks share one thread, so
"which rank is executing" is no longer "which thread am I on".
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import SimMPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.process import Proc

_here = threading.local()


def set_current_proc(proc: Optional["Proc"]) -> None:
    """Install ``proc`` as the rank the calling thread is executing."""
    _here.proc = proc


def current_proc() -> Optional["Proc"]:
    """The rank the coop core is currently resuming on this thread, if any."""
    return getattr(_here, "proc", None)


def co_method(
    target: Any, name: str, sync: str | None = None
) -> Callable[..., Generator[None, None, Any]]:
    """``target.co_<name>`` — bind it once and a call costs no lookup or
    wrapper frame.  A double with only the synchronous method (``sync``,
    by default ``name``) gets a generator that calls it and never
    suspends (such stand-ins never block)."""
    co = getattr(target, "co_" + name, None)
    if co is not None:
        return co

    def co_sync(*args: Any, **kwargs: Any):
        return getattr(target, sync or name)(*args, **kwargs)
        yield  # pragma: no cover - generator marker, unreachable

    return co_sync


def thread_suspend(proc: "Proc") -> None:
    """One baton handoff for a rank *thread* parked inside :func:`drive`.

    Gate ping-pong only — every kill check, trace emission and clock
    charge lives inside the ``co_*`` generator being driven, after its
    ``yield``, so the observable sequence matches the coop core exactly.
    """
    scheduler = proc.sim.scheduler
    scheduler._sched_gate.set()
    proc.run_gate.wait()
    proc.run_gate.clear()


def drive(gen: Generator[None, None, Any], comm: Any) -> Any:
    """Run a ``co_*`` generator to completion on behalf of a sync caller.

    Under the threaded core each ``yield`` becomes a baton handoff of the
    calling rank thread.  Under the coop core a synchronous call that
    reaches a real scheduling point is a conversion bug (the single
    thread would deadlock parking on its own gate), so the first yield
    raises :class:`SimMPIError` instead.  Generators that complete
    without yielding (fake in-test comms, already-matched receives) work
    under either core — and with no simulator at all.
    """
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    proc = getattr(comm, "proc", None)
    if proc is None or getattr(proc.sim, "sim_core", "threads") == "coop":
        gen.close()
        raise SimMPIError(
            "synchronous MPI call reached a scheduling point under the "
            "cooperative core; rank mains must be generators (or the app "
            "must provide co_* variants) when sim_core='coop'"
        )
    while True:
        thread_suspend(proc)
        try:
            gen.send(None)
        except StopIteration as stop:
            return stop.value


def run_inline(gen: Generator[None, None, Any]) -> Any:
    """Complete a generator that must not suspend (sync collective path)."""
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise SimMPIError(
        "collective algorithm suspended on a synchronous endpoint"
    )
