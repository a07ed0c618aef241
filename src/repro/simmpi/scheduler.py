"""Deterministic cooperative scheduler.

Design
------
Every rank is a generator (``Proc.task``) and the scheduler runs on the
simulator's one thread: :meth:`Scheduler.grant` resumes the chosen rank
with ``task.send(None)`` and gets control back when the rank reaches its
next ``yield``.  Control transfers are explicit, so the interleaving of
ranks is fully determined by the scheduler's policy and seed — a
requirement for reproducing protocol bugs found by randomised testing.

Scheduling points occur at every blocking point-to-point call
(``co_send``, ``co_recv`` and their kin, matched or not), at a collective's
receive whose message has not arrived yet, and anywhere the application
calls ``co_yield_point`` explicitly.  A collective's sends and its receives
of already-queued messages are not scheduling points: a collective
suspends only where it waits.  Each is a bare ``yield`` in the code that
reaches it, between kill checks; a receive that must wait first calls
:meth:`Scheduler.block`, which flips the rank to BLOCKED (out of the
runnable index, directly) on ``proc.block_info``.  A blocked rank resumes
only when that receive completes or the rank is killed: a delivery that
matches another receive, queues as unexpected or is a ``TAG_CONTROL``
word leaves it blocked, as a C/MPI process blocked in ``MPI_Recv`` does
not run until its receive completes.  Between scheduling points a rank
runs uninterrupted, which models the paper's single-threaded C/MPI
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
scheduling point (a blocked victim is made runnable for it), after which
it never runs again.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.errors import ConfigError, DeadlockError, ProcessKilled, SimMPIError
from repro.simmpi import coop
from repro.simmpi.mailbox import RecvDescriptor
from repro.simmpi.process import Proc, ProcState
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
        #: The simulator's runnable index, cached: ``block`` edits it.
        self._runnable = getattr(sim, "_runnable_ranks", None)
        self.rng = RngStream(seed, "scheduler")
        self._rr_cursor = 0
        #: Total scheduling slices granted (observability).
        self.total_slices = 0

    # ------------------------------------------------------------------ #
    # Rank side: what a scheduling point calls around its ``yield``, where
    # the rank hands control back to :meth:`grant`.
    # ------------------------------------------------------------------ #

    def co_yield_point(self, proc: Proc):
        """A voluntary scheduling point.  A rank reaches one only inside a
        slice, which :meth:`grant` gives only to a RUNNABLE rank."""
        if proc.kill_flag:
            self._raise_kill(proc)
        yield
        if proc.kill_flag:
            self._raise_kill(proc)

    def block(self, proc: Proc, desc: RecvDescriptor) -> None:
        """Block the running ``proc`` on the unmatched receive ``desc``;
        the caller's next ``yield`` suspends it until the simulator makes
        it RUNNABLE again (its receive completed, or it was killed)."""
        if proc.kill_flag:
            self._raise_kill(proc)
        # The rank is running, so RUNNABLE and in the index: the flip is
        # written directly instead of through the ``Proc.state`` setter.
        proc._state = ProcState.BLOCKED
        ranks = self._runnable
        ranks.pop(bisect_left(ranks, proc.rank))
        # The descriptor itself is the diagnostic: ``Proc.describe``
        # renders it only if a deadlock report asks.
        proc.block_info = desc
        tr = self.tracer
        if tr is not None:
            tr.emit("sched", "block", rank=proc.rank, why="recv")

    def fail_resume(self, proc: Proc, desc: RecvDescriptor) -> None:
        """Raise for a receive resumed killed (``ProcessKilled``) or, with no
        kill, still unmatched (``SimMPIError``)."""
        if proc.kill_flag:
            self._raise_kill(proc)
        raise SimMPIError(
            f"rank {proc.rank} resumed while its receive "
            f"(source={desc.source}, tag={desc.tag}, ctx={desc.context}) "
            "is unmatched and it was not killed"
        )

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
        # Added directly: ``CostModel`` checked ``step`` (finite, >= 0)
        # when it was built, and this runs once per scheduling slice.
        clock._now += clock.cost.step
        # Resume the rank generator until its next scheduling point.
        # StopIteration is the handback of a finished rank (``_rank_body``
        # already recorded the state).  The current-proc registry is
        # written directly (two writes per slice on the hottest path in
        # the simulator).
        registry = coop._here
        registry.proc = proc
        try:
            proc.task.send(None)
        except StopIteration:
            pass
        finally:
            registry.proc = None

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
