"""Deterministic cooperative scheduler.

Design
------
Every rank is a generator (``Proc.task``) and the scheduler runs on the
simulator's one thread: :meth:`Scheduler.grant` resumes the chosen rank
with ``task.send(None)`` and gets control back when the rank reaches its
next ``yield``.  Control transfers are explicit, so the interleaving of
ranks is fully determined by the scheduler's policy and seed — a
requirement for reproducing protocol bugs found by randomised testing.

Scheduling points occur at every simulated MPI call (and anywhere the
application calls ``co_yield_point`` explicitly).  Between scheduling points a
rank runs uninterrupted, which models the paper's single-threaded C/MPI
processes faithfully.

Policies
--------
``random``
    Pick uniformly among runnable ranks (seeded).  Default; maximises
    interleaving diversity for protocol testing.
``round_robin``
    Cycle through runnable ranks in rank order; useful for debugging.

Stopping faults are realised here: a due kill sets the victim's ``kill_flag``
and the victim raises :class:`~repro.errors.ProcessKilled` at its next
scheduling point (or immediately when woken from a blocked state), after
which it never runs again.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.errors import ConfigError, DeadlockError, ProcessKilled
from repro.simmpi import coop
from repro.simmpi.mailbox import RecvDescriptor
from repro.simmpi.process import BlockInfo, Proc, ProcState
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.simulator import Simulator

POLICIES = ("random", "round_robin")


class Scheduler:
    """Deterministic scheduler over the simulation's rank generators."""

    def __init__(self, sim: "Simulator", seed: int, policy: str = "random") -> None:
        if policy not in POLICIES:
            raise ConfigError(f"unknown scheduling policy {policy!r}; expected {POLICIES}")
        self.sim = sim
        self.policy = policy
        self._policy_is_rr = policy == "round_robin"
        #: Optional repro.trace recorder, taken from the simulator at
        #: construction (the simulator binds its clock first).
        self.tracer = getattr(sim, "tracer", None)
        #: The simulation clock, cached: ``grant`` charges it every slice.
        self._clock = getattr(sim, "clock", None)
        self.rng = RngStream(seed, "scheduler")
        #: Per-rank wall accounting is opt-in (``SimConfig.wall_accounting``):
        #: two ``perf_counter`` reads per slice are pure overhead on the hot
        #: path and the numbers never enter deterministic outputs.
        self._wall_accounting = bool(getattr(sim, "wall_accounting", False))
        self._rr_cursor = 0
        #: Total scheduling slices granted (observability).
        self.total_slices = 0

    # ------------------------------------------------------------------ #
    # Rank side: scheduling points, written as generators.  A ``yield`` is
    # where the rank hands control back to :meth:`grant`.
    # ------------------------------------------------------------------ #

    def before_yield(self, proc: Proc) -> None:
        """What a voluntary scheduling point does before it suspends."""
        if proc.kill_flag:
            self._raise_kill(proc)
        proc.state = ProcState.RUNNABLE

    def after_yield(self, proc: Proc) -> None:
        """What a voluntary scheduling point does once it is resumed."""
        if proc.kill_flag:
            self._raise_kill(proc)

    def co_yield_point(self, proc: Proc):
        # The per-message ``Comm`` twins (``co_send``, ``co_recv_envelope``,
        # ``co_coll_send``) bracket a bare ``yield`` with the same pair
        # instead of allocating this generator for every message.
        self.before_yield(proc)
        yield
        self.after_yield(proc)

    def co_block_on_recv(self, proc: Proc, desc: RecvDescriptor):
        tr = self.tracer
        info = BlockInfo("recv", desc)
        while desc.matched is None:
            if proc.kill_flag:
                self._raise_kill(proc)
            proc.state = ProcState.BLOCKED
            proc.block_info = info
            if tr is not None:
                tr.emit("sched", "block", rank=proc.rank, why="recv")
            yield
            if proc.kill_flag:
                self._raise_kill(proc)
            proc.block_info = None

    def _check_kill(self, proc: Proc) -> None:
        if proc.kill_flag:
            self._raise_kill(proc)

    def _raise_kill(self, proc: Proc) -> None:
        proc.kill_flag = False
        raise ProcessKilled(proc.rank, self.sim.clock.now)

    # ------------------------------------------------------------------ #
    # Scheduler side.
    # ------------------------------------------------------------------ #

    def grant(self, proc: Proc) -> None:
        """Give ``proc`` one slice; returns at its next scheduling point."""
        self.total_slices += 1
        proc.slices += 1
        tr = self.tracer
        if tr is not None:
            tr.emit("sched", "grant", rank=proc.rank)
        # Every slice costs a scheduling step of virtual time; without this
        # a busy-polling rank (e.g. an MPI_Test loop) would freeze the clock
        # and in-flight messages would never come due.
        clock = self._clock
        if clock is None:
            clock = self._clock = self.sim.clock
        # Inlined ``clock.charge(clock.cost.step)``: the step cost is a
        # non-negative constant and this runs once per scheduling slice.
        clock._now += clock.cost.step
        # Resume the rank generator until its next scheduling point.
        # StopIteration is the handback of a finished rank (``_rank_body``
        # already recorded the state).  The current-proc registry is
        # written directly (two writes per slice on the hottest path in
        # the simulator).
        task = proc.task
        registry = coop._here
        if not self._wall_accounting:
            registry.proc = proc
            try:
                task.send(None)
            except StopIteration:
                pass
            finally:
                registry.proc = None
            return
        t0 = _time.perf_counter()
        registry.proc = proc
        try:
            task.send(None)
        except StopIteration:
            pass
        finally:
            registry.proc = None
        proc.wall_seconds += _time.perf_counter() - t0

    def pick_rank(self, ranks: list[int]) -> int:
        """Policy choice over an ascending list of runnable ranks.

        The simulator loop calls this with its maintained runnable index,
        so a pick is O(1)-ish instead of rebuilding and re-sorting a proc
        list every scheduling step.  RNG consumption is identical to the
        historical proc-list path (no draw for a solo rank, one draw
        otherwise) and, bit for bit, to the scalar
        ``ranks[int(Generator.integers(len(ranks)))]`` it replaced: the
        ``scheduler`` stream has this one consumer, so it is block-read
        (:meth:`RngStream.next_below`) and seeded interleavings are
        unchanged.  ``round_robin`` never draws.
        """
        if not ranks:
            raise DeadlockError("pick_rank() called with no runnable ranks")
        if len(ranks) == 1:
            # The fast path must still advance the round-robin cursor: a
            # solo slice is a real turn, and leaving the cursor behind the
            # rank that just ran would skew the next multi-runnable pick
            # back toward ranks that already had their turn.
            if self._policy_is_rr:
                self._rr_cursor = ranks[0] + 1
            return ranks[0]
        if self._policy_is_rr:
            # First rank at or past the cursor, wrapping to the lowest.
            i = bisect_left(ranks, self._rr_cursor)
            chosen = ranks[i] if i < len(ranks) else ranks[0]
            self._rr_cursor = chosen + 1
            return chosen
        return ranks[self.rng.next_below(len(ranks))]

    def wake(self, proc: Proc) -> None:
        """Make a blocked rank runnable (a message arrived, or teardown)."""
        if proc.state is ProcState.BLOCKED:
            proc.state = ProcState.RUNNABLE
            tr = self.tracer
            if tr is not None:
                tr.emit("sched", "wake", rank=proc.rank)

    def request_kill(self, proc: Proc) -> None:
        """Arrange for ``proc`` to die at its next scheduling opportunity."""
        if proc.finished:
            return
        proc.kill_flag = True
        if proc.state is ProcState.BLOCKED:
            proc.state = ProcState.RUNNABLE

    def describe_blocked(self, procs: list[Proc]) -> str:
        """Deadlock diagnostics: every blocked rank's state, and — when
        tracing is armed — its last few trace events, so a simulator
        deadlock report shows *how* each rank got stuck."""
        tr = self.tracer
        lines = []
        for p in procs:
            if p.state is not ProcState.BLOCKED:
                continue
            line = p.describe()
            if tr is not None:
                recent = tr.tail(p.rank, 3)
                if recent:
                    line += " | recent: " + ", ".join(ev.short() for ev in recent)
            lines.append(line)
        return "; ".join(lines) if lines else "(no blocked ranks)"
