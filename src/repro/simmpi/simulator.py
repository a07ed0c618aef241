"""Top-level simulator: configuration, run loop, failure handling.

:class:`Simulator` executes one *job attempt*: it runs every rank's main as
a generator on one thread, interleaves the ranks deterministically through
the :class:`Scheduler` (each ``yield`` is a scheduling point), moves
messages through the :class:`Network`, injects stopping faults from a
:class:`FailureSchedule`, and watches for them with a heartbeat
:class:`HeartbeatFailureDetector`.

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

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from types import GeneratorType

from repro.errors import ConfigError, DeadlockError, ProcessKilled, SimMPIError
from repro.simmpi import coop
from repro.simmpi.clock import CostModel, VirtualClock
from repro.simmpi.comm import Comm
from repro.simmpi.failure_detector import HeartbeatFailureDetector
from repro.simmpi.failures import FailureSchedule
from repro.simmpi.group import Group
from repro.simmpi.network import Network, NetworkStats
from repro.simmpi.process import Proc, ProcState
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
    #: Opt-in per-rank wall-clock accounting (``SimResult.per_rank_wall``).
    #: Off by default: it costs two ``perf_counter`` reads per scheduling
    #: slice and never feeds deterministic outputs.
    wall_accounting: bool = False

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
    per_rank_wall: list[float]
    network: NetworkStats
    total_slices: int


class RankContext:
    """The per-rank handle passed to application main functions."""

    def __init__(self, sim: "Simulator", proc: Proc) -> None:
        self.sim = sim
        self.proc = proc
        self.comm = Comm(sim, proc, sim.world_group, context=0)
        #: A per-rank deterministic RNG stream for application use.  Its
        #: state is ordinary application memory: the C3 context checkpoints
        #: and restores it, so post-restart draws resume mid-stream.
        seed = sim.config.app_seed if sim.config.app_seed is not None else sim.config.seed
        self.rng = RngStream(seed, f"app-rank-{proc.rank}")
        #: Slot used by the recovery driver to attach the C3 machinery.
        self.c3: Any = None
        #: True when this attempt is restarting from a checkpoint.
        self.restoring: bool = False

    @property
    def rank(self) -> int:
        return self.proc.rank

    @property
    def size(self) -> int:
        return self.sim.config.nprocs

    def compute(self, flops: float = 0.0, seconds: float = 0.0) -> None:
        """Charge virtual time for a computation phase."""
        cost = self.sim.clock.cost.compute_cost(flops) + seconds
        self.sim.clock.charge(cost)

    def wtime(self) -> float:
        return self.sim.clock.now

    def co_yield_point(self):
        """Voluntary scheduling point (lets other ranks run)."""
        yield from self.sim.scheduler.co_yield_point(self.proc)

    def co_potential_checkpoint(self):
        """No-op unless the recovery driver attached the C3 machinery."""
        if self.c3 is not None:
            return (yield from coop.co_method(self.c3, "potential_checkpoint")())
        return None


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
        #: time; network/detector get direct references because they never
        #: hold a sim back-pointer.
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
        #: Read by the scheduler at construction.
        self.wall_accounting = config.wall_accounting
        self.scheduler = Scheduler(self, config.seed, config.sched_policy)
        self.detector = HeartbeatFailureDetector(
            config.nprocs, timeout=config.detector_timeout,
            heartbeat_interval=config.detector_timeout / 2,
        )
        self.detector.tracer = tracer
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
        #: Ranks currently RUNNABLE, ascending; maintained by the
        #: ``Proc.state`` setter so the scheduler loop never rescans procs.
        self._runnable_ranks: list[int] = []
        self.procs = [Proc(self, r, mains[r]) for r in range(config.nprocs)]
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
            self.scheduler._check_kill(proc)  # first-grant kill window
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

    def _start_ranks(self) -> None:
        for proc in self.procs:
            proc.state = ProcState.RUNNABLE
            proc.task = self._rank_body(proc)

    def _apply_due_failures(self) -> None:
        for event in self.failures.due(self.clock.now):
            proc = self.procs[event.rank]
            if proc.finished:
                continue
            if event.rank not in self._death_time and not self.detector.is_suspected(
                event.rank
            ):
                # The victim heartbeated right up to its death.  Credit it
                # now, *before* freezing its liveness: after a long
                # advance_to jump its last refresh can be arbitrarily stale,
                # and measuring silence from there would fire the detector
                # the instant the kill lands (latency 0) instead of exactly
                # one timeout after the death.
                self.detector.heard_from(event.rank, self.clock.now)
            self._death_time.setdefault(event.rank, self.clock.now)
            tr = self.tracer
            if tr is not None:
                tr.emit("fail", "kill", rank=event.rank, at=event.time)
            self.scheduler.request_kill(proc)

    def _deliver_due_messages(self) -> None:
        for env in self.network.pop_due(self.clock.now):
            proc = self.procs[env.dest]
            if proc.finished:
                continue
            proc.mailbox.deliver(env)
            self.scheduler.wake(proc)

    def _detector_due(self) -> bool:
        """Can this step's detector tick possibly produce a suspicion?

        Live ranks are refreshed to ``now`` before every tick, so the only
        ranks a tick can newly suspect are registered deaths whose frozen
        silence has reached the timeout.  Checking just those (usually zero
        or one) keeps the per-step detector work O(#deaths) instead of
        O(nprocs) — the difference between O(steps) and O(steps * nprocs)
        total, which dominated large-rank-count runs.  The decisive step
        still runs the full refresh+tick pair, so suspicion times, event
        fields, and trace output are bit-identical to the always-tick
        regime.
        """
        if not self._death_time:
            return False
        now = self.clock.now
        detector = self.detector
        timeout = detector.timeout
        for rank in self._death_time:
            if not detector.is_suspected(rank) and (
                now - detector.last_heard(rank) >= timeout
            ):
                return True
        return False

    def _refresh_liveness(self) -> None:
        for proc in self.procs:
            if proc.state is ProcState.DONE or proc.state is ProcState.ERRORED:
                self.detector.mark_completed(proc.rank)
            elif proc.state is not ProcState.DEAD:
                # A rank with a kill pending is already dead for detection
                # purposes (its death_time is recorded); refreshing it here
                # would push last_heard past death_time and stall the
                # detector-fire time jump.
                if proc.rank in self._death_time:
                    continue
                if not self.detector.is_suspected(proc.rank):
                    self.detector.heard_from(proc.rank, self.clock.now)

    def _next_detector_fire(self) -> Optional[float]:
        times = [
            self._death_time[r] + self.detector.timeout
            for r in self._death_time
            if not self.detector.is_suspected(r)
        ]
        return min(times) if times else None

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
            if death_time and self._detector_due():
                self._refresh_liveness()
                suspicions = self.detector.tick(clock.now)
                if suspicions:
                    detected_at = suspicions[0].time
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

            if all(p.finished for p in self.procs):
                if any(p.state is ProcState.DEAD for p in self.procs):
                    # Everybody else finished before the detector fired;
                    # jump time forward so the fault is still reported.
                    # The 1e-12 floor matches the event-jump branch below:
                    # with last_heard == death_time, float rounding can put
                    # (death + timeout) - death just under timeout, and a
                    # bare jump to the fire time would then spin forever.
                    fire = self._next_detector_fire()
                    if fire is not None:
                        self.clock.advance_to(max(fire, self.clock.now + 1e-12))
                        continue
                break

            # Nobody runnable: advance virtual time to the next event.
            candidates = [
                t
                for t in (
                    self.network.next_delivery_time(),
                    next_kill,
                    self._next_detector_fire(),
                )
                if t is not None
            ]
            if not candidates:
                blocked = self.scheduler.describe_blocked(self.procs)
                self._teardown()
                raise DeadlockError(f"no runnable ranks and no pending events: {blocked}")
            self.clock.advance_to(max(min(candidates), self.clock.now + 1e-12))

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
            per_rank_wall=[p.wall_seconds for p in self.procs],
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
