"""Top-level simulator: configuration, run loop, failure handling.

:class:`Simulator` executes one *job attempt*: it runs every rank's main as
a generator on one thread, interleaves the ranks deterministically through
the :class:`Scheduler` (each ``yield`` is a scheduling point), moves
messages through the :class:`Network`, injects stopping faults from a
:class:`FailureSchedule`, and detects each death exactly
``SimConfig.detector_timeout`` after it happens.

A run ends in one of three ways:

* **completed** — every rank's main function returned; per-rank results are
  collected in :class:`SimResult`;
* **failed** — a stopping fault was detected; the simulator tears all ranks
  down (they are all rolled back on restart, per the paper's recovery model)
  and returns a failed :class:`SimResult`, which the recovery driver turns
  into a restart from the last committed global checkpoint;
* **error** — a rank raised an ordinary Python exception, which is re-raised
  to the caller after teardown (a bug, not a simulated fault).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop
from types import GeneratorType
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigError, DeadlockError, ProcessKilled, SimMPIError
from repro.simmpi.clock import CostModel, VirtualClock
from repro.simmpi.comm import Comm
from repro.simmpi.failures import FailureSchedule
from repro.simmpi.group import Group
from repro.simmpi.network import Network, NetworkStats
from repro.simmpi.process import _FINISHED_STATES, Proc, ProcState
from repro.simmpi.scheduler import Scheduler
from repro.util.rng import RngStream

MainFn = Callable[["RankContext"], Any]


@dataclass
class SimConfig:
    """Knobs for one simulation attempt."""

    nprocs: int
    seed: int = 0
    #: Seed for per-rank application RNG streams.  Defaults to ``seed``;
    #: the recovery driver pins it across attempts so that application
    #: randomness is stable while scheduler/network interleavings vary.
    app_seed: Optional[int] = None
    sched_policy: str = "random"
    ordering: str = "per_tag_fifo"
    base_delay: float = 5e-6
    jitter: float = 20e-6
    detector_timeout: float = 0.25
    cost_model: CostModel = field(default_factory=CostModel)
    #: Hard cap on scheduling slices — catches livelocks in protocol code.
    max_slices: int = 20_000_000

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ConfigError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.detector_timeout <= 0:
            raise ConfigError("detector_timeout must be positive")


@dataclass
class SimResult:
    """Outcome of one simulation attempt."""

    completed: bool
    failed: bool
    dead_ranks: tuple[int, ...]
    detected_at: Optional[float]
    results: list[Any]
    virtual_time: float
    wall_seconds: float
    network: NetworkStats
    total_slices: int


class RankContext:
    """The per-rank handle passed to application main functions."""

    def __init__(self, sim: "Simulator", proc: Proc) -> None:
        self.sim = sim
        self.proc = proc
        self.comm = Comm(sim, proc, sim.world_group, context=0)
        #: This rank, and the number of ranks: fixed for the attempt.
        self.rank = proc.rank
        self.size = sim.config.nprocs
        #: A per-rank deterministic RNG stream for application use.  Its
        #: state is ordinary application memory: the C3 context checkpoints
        #: and restores it, so post-restart draws resume mid-stream.
        seed = sim.config.app_seed if sim.config.app_seed is not None else sim.config.seed
        self.rng = RngStream(seed, f"app-rank-{proc.rank}")

    def compute(self, flops: float = 0.0, seconds: float = 0.0) -> None:
        """Charge virtual time for a computation phase."""
        clock = self.sim.clock
        clock.charge(clock.cost.flop * flops + seconds)

    def wtime(self) -> float:
        return self.sim.clock.now

    def co_yield_point(self):
        """Voluntary scheduling point (lets other ranks run)."""
        yield from self.sim.scheduler.co_yield_point(self.proc)


class Simulator:
    """One deterministic simulation attempt over ``nprocs`` ranks."""

    def __init__(
        self,
        config: SimConfig,
        main: MainFn | Sequence[MainFn],
        failures: FailureSchedule | None = None,
        context_factory: Callable[["Simulator", Proc], RankContext] | None = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.clock = VirtualClock(config.cost_model)
        #: Optional :class:`repro.trace.TraceRecorder`.  Bound to this
        #: attempt's clock here so every layer that can see the simulator
        #: (scheduler, pipeline via ``comm.sim``) emits at current virtual
        #: time; the network gets a direct reference because it never holds
        #: a sim back-pointer.
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(self.clock)
        self.world_group = Group.world(config.nprocs)
        self.network = Network(
            config.nprocs,
            RngStream(config.seed, "network"),
            base_delay=config.base_delay,
            jitter=config.jitter,
            ordering=config.ordering,
        )
        self.network.tracer = tracer
        #: Ranks currently RUNNABLE, ascending, so the scheduler loop never
        #: rescans procs: maintained by the ``Proc.state`` setter, and by
        #: ``Scheduler.block`` and the delivery loop's wake directly.
        self._runnable_ranks: list[int] = []
        self.scheduler = Scheduler(self, config.seed, config.sched_policy)
        self.failures = failures or FailureSchedule.none()
        self._context_factory = context_factory or RankContext
        if callable(main):
            mains: list[MainFn] = [main] * config.nprocs
        else:
            mains = list(main)
            if len(mains) != config.nprocs:
                raise ConfigError(
                    f"need {config.nprocs} main functions, got {len(mains)}"
                )
        self.procs = [Proc(self, r, mains[r]) for r in range(config.nprocs)]
        #: Ranks whose main has not ended; ``_rank_body`` counts each one
        #: down as it sets the rank's finished state.
        self._unfinished = config.nprocs
        #: Virtual time of every death, recorded once: a scheduled kill when
        #: it is requested, any other death (a checkpoint crash) when its
        #: slice ends.  A rank is suspected ``detector_timeout`` later.
        self._death_time: dict[int, float] = {}
        self._contexts: dict[Any, int] = {}
        self._next_context = 1
        self._ran = False

    # ------------------------------------------------------------------ #

    def allocate_context(self, parent: int, key: Any) -> int:
        """Deterministically allocate a child communicator context id.

        Every member of the parent communicator calls this with the same
        ``(parent, key)`` pair (MPI's collective-order requirement), so the
        memoised registry hands them all the same fresh id without any
        message exchange.
        """
        full_key = (parent, key)
        if full_key not in self._contexts:
            self._contexts[full_key] = self._next_context
            self._next_context += 1
        return self._contexts[full_key]

    # ------------------------------------------------------------------ #

    def _rank_body(self, proc: Proc):
        """The rank as a generator, resumed by ``Scheduler.grant``.

        A ``ProcessKilled`` raised at any inner scheduling point unwinds
        the whole generator chain (``finally`` blocks run) and is absorbed
        here.  A main that is not a generator function runs to completion
        in its first slice.
        """
        try:
            if proc.kill_flag:  # first-grant kill window
                self.scheduler._raise_kill(proc)
            ctx = self._context_factory(self, proc)
            out = proc.main(ctx)
            if isinstance(out, GeneratorType):
                proc.result = yield from out
            else:
                proc.result = out
            proc.state = ProcState.DONE
        except ProcessKilled:
            proc.state = ProcState.DEAD
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            proc.error = exc
            proc.state = ProcState.ERRORED
        self._unfinished -= 1

    def _start_ranks(self) -> None:
        for proc in self.procs:
            proc.state = ProcState.RUNNABLE
            proc.task = self._rank_body(proc)

    def _apply_due_failures(self) -> None:
        for event in self.failures.due(self.clock.now):
            proc = self.procs[event.rank]
            if proc.finished:
                continue
            self._death_time.setdefault(event.rank, self.clock.now)
            tr = self.tracer
            if tr is not None:
                tr.emit("fail", "kill", rank=event.rank, at=event.time)
            self.scheduler.request_kill(proc)

    def _deliver_due_messages(self) -> None:
        # One pass over the network heap: a due message to or from a dead
        # rank is dropped, any other is delivered to its mailbox.  It wakes
        # its rank (state and runnable index set directly) only when it
        # completes the receive the rank is blocked on (``block_info``);
        # another tag, a posted ``irecv`` or a control word just queues.
        # Kills wake through ``Scheduler.request_kill``.  The ``sched/wake``
        # events wait for the end of the pass: a trace lists every ``net``
        # event of a pass before its wakes (the golden traces pin it).
        network = self.network
        heap = network._heap
        dead = network._dead
        stats = network.stats
        procs = self.procs
        now = self.clock._now
        runnable = self._runnable_ranks
        tr = self.tracer
        woken = []
        while heap and heap[0][0] <= now:
            env = heappop(heap)[2]
            if dead and (env.dest in dead or env.source in dead):
                # The stopping model: a dead process neither sends nor receives.
                if env.dest in dead:
                    stats.dropped_dead_dest += 1
                else:
                    stats.dropped_dead_source += 1
                if tr is not None:
                    tr.emit(
                        "net", "drop", t=env.deliver_time, rank=env.dest,
                        source=env.source, tag=env.tag,
                    )
                continue
            if tr is not None:
                tr.emit(
                    "net", "deliver", t=env.deliver_time, rank=env.dest,
                    source=env.source, tag=env.tag, nbytes=env.nbytes,
                )
            stats.delivered += 1
            stats.bytes_delivered += env.nbytes
            proc = procs[env.dest]
            state = proc._state
            if state in _FINISHED_STATES:
                continue
            desc = proc.mailbox.deliver(env)
            if (
                desc is not None
                and desc is proc.block_info
                and state is ProcState.BLOCKED
            ):
                proc._state = ProcState.RUNNABLE
                insort(runnable, proc.rank)
                if tr is not None:
                    woken.append(proc.rank)
        for rank in woken:
            tr.emit("sched", "wake", rank=rank)

    def _suspect_due(self) -> Optional[float]:
        """Suspect every rank whose death is one timeout old.

        Returns the detection time, or None while no deadline has passed.
        The test is ``now - death >= timeout``, not ``now >= death +
        timeout``: the two round differently, and the first is the rule
        every pinned run was recorded under.  Suspects are reported in
        rank order; ``last_heard`` is the death time.
        """
        now = self.clock.now
        timeout = self.config.detector_timeout
        due = sorted(r for r, t in self._death_time.items() if now - t >= timeout)
        if not due:
            return None
        tr = self.tracer
        if tr is not None:
            for rank in due:
                tr.emit(
                    "detect", "suspect", t=now,
                    rank=rank, last_heard=self._death_time[rank],
                )
        return now

    def _next_suspicion(self) -> Optional[float]:
        if not self._death_time:
            return None
        return min(self._death_time.values()) + self.config.detector_timeout

    def _teardown(self) -> None:
        """Kill every remaining rank and let each unwind."""
        for proc in self.procs:
            if not proc.finished:
                self.scheduler.request_kill(proc)
        # Grant each not-yet-finished rank so its generator can unwind.
        for proc in self.procs:
            while not proc.finished:
                self.scheduler.grant(proc)
        self.network.drain()

    def _handle_new_death(self, proc: Proc) -> None:
        self.network.mark_dead(proc.rank)
        proc.mailbox.clear()
        self._death_time.setdefault(proc.rank, self.clock.now)

    # ------------------------------------------------------------------ #

    def run(self) -> SimResult:
        """Execute the attempt to completion, failure, or error."""
        if self._ran:
            raise SimMPIError("a Simulator instance can only run once")
        self._ran = True
        try:
            return self._run()
        finally:
            # Cut the back-links (ranks and scheduler to the simulator, a
            # rank's main to its layers) so reference counting, not the
            # cyclic collector, frees the attempt and the state it holds.
            self.scheduler.sim = None
            for proc in self.procs:
                proc.sim = proc.main = None

    def _run(self) -> SimResult:
        import time as _time

        wall_start = _time.perf_counter()
        self._start_ranks()
        detected_at: Optional[float] = None

        # Hot-loop locals: one scheduling step runs for every simulated MPI
        # call, so attribute traffic here is a measurable fraction of total
        # wall time at large rank counts.  The inline peeks (next kill time,
        # due deliveries, registered deaths) skip whole handler calls on
        # the overwhelmingly common step where nothing is due.
        procs = self.procs
        scheduler = self.scheduler
        clock = self.clock
        # Attempt-aware; only _apply_due_failures consumes kills mid-run.
        next_kill = self.failures.next_time()
        net_heap = self.network._heap
        runnable_ranks = self._runnable_ranks
        death_time = self._death_time
        max_slices = self.config.max_slices

        while True:
            if next_kill is not None and next_kill <= clock._now:
                self._apply_due_failures()
                next_kill = self.failures.next_time()
            if net_heap and net_heap[0][0] <= clock._now:
                self._deliver_due_messages()
            if death_time:
                detected_at = self._suspect_due()
                if detected_at is not None:
                    break

            if runnable_ranks:
                if scheduler.total_slices >= max_slices:
                    self._teardown()
                    raise SimMPIError(
                        f"exceeded max_slices={max_slices}; likely livelock"
                    )
                proc = procs[scheduler.pick_rank(runnable_ranks)]
                # The pick came from the runnable index, so the proc is
                # RUNNABLE — and hence alive — going into its slice; a
                # DEAD state afterwards is always a fresh death.
                scheduler.grant(proc)
                state = proc._state
                if state is ProcState.ERRORED:
                    error = proc.error
                    self._teardown()
                    raise error  # application bug: surface with traceback
                if state is ProcState.DEAD:
                    self._handle_new_death(proc)
                continue

            if not self._unfinished:
                if death_time:
                    # Everybody else finished before the deadline; jump
                    # time forward so the fault is still reported.  The
                    # 1e-12 floor matches the event-jump branch below:
                    # float rounding can put (death + timeout) - death just
                    # under timeout, and a bare jump to the deadline would
                    # then spin forever.
                    fire = self._next_suspicion()
                    self.clock.advance_to(max(fire, self.clock.now + 1e-12))
                    continue
                break

            # Nobody runnable: advance virtual time to the next event (the
            # earliest delivery, kill or suspicion; read without a call).
            wake = net_heap[0][0] if net_heap else None
            if next_kill is not None and (wake is None or next_kill < wake):
                wake = next_kill
            if death_time:
                fire = self._next_suspicion()
                if wake is None or fire < wake:
                    wake = fire
            if wake is None:
                blocked = self.scheduler.describe_blocked(self.procs)
                self._teardown()
                raise DeadlockError(f"no runnable ranks and no pending events: {blocked}")
            clock.advance_to(max(wake, clock._now + 1e-12))

        # Either clean completion or detected failure.
        failed = detected_at is not None
        if failed:
            self._teardown()
        wall = _time.perf_counter() - wall_start
        # Only injected faults count as deaths; teardown after detection also
        # unwinds surviving ranks via ProcessKilled, but those are rollback
        # victims, not failures.
        dead = tuple(sorted(self._death_time))
        return SimResult(
            completed=not failed and all(p.state is ProcState.DONE for p in self.procs),
            failed=failed,
            dead_ranks=dead,
            detected_at=detected_at,
            results=[p.result for p in self.procs],
            virtual_time=self.clock.now,
            wall_seconds=wall,
            network=self.network.stats,
            total_slices=self.scheduler.total_slices,
        )


def run_simple(
    main: MainFn | Sequence[MainFn],
    nprocs: int,
    seed: int = 0,
    **config_kwargs: Any,
) -> SimResult:
    """Convenience wrapper: build a config, run once, return the result."""
    config = SimConfig(nprocs=nprocs, seed=seed, **config_kwargs)
    return Simulator(config, main).run()
