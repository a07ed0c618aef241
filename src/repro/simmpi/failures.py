"""Stopping-fault injection.

The paper's fault model (Section 1.1): a faulty process hangs and stops
responding — it neither sends nor receives.  Injection is expressed as a
schedule of ``(virtual_time, rank)`` kill events and of crashes inside a
rank's checkpoint write.

Multi-failure semantics across recovery attempts
------------------------------------------------

A schedule is *stateful across attempts*: an event consumed in attempt *n*
does not fire again in attempt *n+1* — the faulty node has been replaced.
Three rules pin down what "consumed" means when a schedule carries more
than one event:

* **Time-indexed kills** (:class:`KillEvent`) are measured on the attempt's
  own virtual clock, which restarts at 0 every attempt.  An event that was
  *not* reached in attempt *n* (because a detected death ended the
  attempt first) stays armed and will fire in a later attempt once that
  attempt's clock reaches it — this is how a single schedule expresses a
  cascade of failures across restarts.
* **Attempt-pinned kills** (``KillEvent(t, r, attempt=k)``) are eligible
  only while attempt *k* is running; they model faults *during recovery*
  (a node dying while everyone is replaying attempt ``k``'s restart).  An
  attempt-pinned event whose attempt has passed never fires.
* **Mid-checkpoint crashes** (:class:`CheckpointCrash`) are epoch-indexed,
  not time-indexed: each fires at most once, the first time its
  ``(rank, epoch)`` checkpoint write happens, in whichever attempt that
  occurs.

The recovery driver runs on :meth:`FailureSchedule.copy`, never on the
caller's schedule: the same schedule passed to two runs fires the same
faults in both (rerun-determinism harnesses rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class KillEvent:
    """Kill ``rank`` at virtual time ``time``.

    ``attempt`` pins the event to one recovery attempt (0-based index):
    ``None`` means "whenever the running attempt's clock reaches ``time``",
    an integer means "only while attempt ``attempt`` is running" — the
    kill-during-recovery scenario.
    """

    time: float
    rank: int
    attempt: Optional[int] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"kill time must be >= 0, got {self.time}")
        if self.rank < 0:
            raise ConfigError(f"kill rank must be >= 0, got {self.rank}")
        if self.attempt is not None and self.attempt < 0:
            raise ConfigError(f"kill attempt must be >= 0, got {self.attempt}")


@dataclass(frozen=True)
class CheckpointCrash:
    """Kill ``rank`` *while it is writing* its checkpoint for ``epoch``.

    Time-indexed kills (:class:`KillEvent`) land between MPI calls; this
    event lands inside stable storage's write path, after exactly
    ``after_chunks`` chunks of the checkpoint have been processed (written
    or deduped; 0 means before any byte lands) and always before the
    generation manifest is published — the torn-write scenario the storage
    engine's two-phase commit must survive (recovery falls back to the
    previous committed generation).  With ``corrupt_manifest=True`` the
    write instead completes but publishes a checksum-invalid manifest, so
    recovery must *reject* generation ``epoch`` rather than miss it.
    """

    rank: int
    epoch: int
    after_chunks: int = 1
    corrupt_manifest: bool = False

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigError(f"crash rank must be >= 0, got {self.rank}")
        if self.epoch < 1:
            raise ConfigError(f"crash epoch must be >= 1, got {self.epoch}")
        if self.after_chunks < 0:
            raise ConfigError(
                f"after_chunks must be >= 0, got {self.after_chunks}"
            )


class FailureSchedule:
    """An ordered schedule of stopping faults consumed by the scheduler.

    Two event families share the schedule: time-indexed :class:`KillEvent`
    kills (consumed by the scheduler) and :class:`CheckpointCrash` events
    (consumed by stable storage mid-write).  Both are stateful across
    recovery attempts — see the module docstring for the exact
    multi-failure semantics.  The recovery driver announces each attempt
    via :meth:`begin_attempt`; standalone simulator runs default to
    attempt 0.
    """

    def __init__(
        self,
        events: Iterable[KillEvent] = (),
        checkpoint_crashes: Iterable[CheckpointCrash] = (),
    ) -> None:
        self._events: tuple[KillEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.time, e.rank))
        )
        self._consumed: list[KillEvent] = []
        self._pending: list[KillEvent] = list(self._events)
        self._checkpoint_crashes: list[CheckpointCrash] = list(checkpoint_crashes)
        self._fired_crashes: list[CheckpointCrash] = []
        self._attempt = 0

    @classmethod
    def none(cls) -> "FailureSchedule":
        return cls(())

    @classmethod
    def single(cls, time: float, rank: int) -> "FailureSchedule":
        return cls((KillEvent(time, rank),))

    @classmethod
    def during_checkpoint(
        cls,
        rank: int,
        epoch: int,
        after_chunks: int = 1,
        corrupt_manifest: bool = False,
    ) -> "FailureSchedule":
        """Kill ``rank`` in the middle of writing its ``epoch`` checkpoint."""
        return cls(
            (),
            checkpoint_crashes=(
                CheckpointCrash(rank, epoch, after_chunks, corrupt_manifest),
            ),
        )

    # ------------------------------------------------------------------ #
    # Attempt gating.
    # ------------------------------------------------------------------ #

    def begin_attempt(self, index: int) -> None:
        """Announce that recovery attempt ``index`` is starting.

        Attempt-pinned events (``KillEvent.attempt is not None``) are only
        eligible while their attempt is the current one.  The recovery
        driver calls this before every simulator attempt; standalone
        simulator runs stay on the default attempt 0.
        """
        if index < 0:
            raise ConfigError(f"attempt index must be >= 0, got {index}")
        self._attempt = index

    def _eligible(self, event: KillEvent) -> bool:
        return event.attempt is None or event.attempt == self._attempt

    # ------------------------------------------------------------------ #
    # Kill events.
    # ------------------------------------------------------------------ #

    def next_time(self) -> float | None:
        """Virtual time of the next pending *eligible* kill, or None.

        Events pinned to a different attempt are invisible here: the
        simulator uses this to advance virtual time, and jumping to a time
        whose event cannot fire would stall the event loop.
        """
        times = [e.time for e in self._pending if self._eligible(e)]
        return min(times) if times else None

    def due(self, now: float) -> list[KillEvent]:
        """Pop every eligible kill event whose time has arrived."""
        out: list[KillEvent] = []
        keep: list[KillEvent] = []
        for event in self._pending:
            if self._eligible(event) and event.time <= now:
                out.append(event)
            else:
                keep.append(event)
        self._pending = keep
        self._consumed.extend(out)
        return out

    def remaining(self) -> list[KillEvent]:
        """Every not-yet-consumed kill event (any attempt)."""
        return list(self._pending)

    def consumed_events(self) -> tuple[KillEvent, ...]:
        """Kill events already consumed, in consumption order."""
        return tuple(self._consumed)

    # ------------------------------------------------------------------ #
    # Checkpoint crashes.
    # ------------------------------------------------------------------ #

    def take_checkpoint_crash(self, rank: int, epoch: int) -> CheckpointCrash | None:
        """Pop the crash armed for ``(rank, epoch)``, if any (fires once)."""
        for index, crash in enumerate(self._checkpoint_crashes):
            if crash.rank == rank and crash.epoch == epoch:
                fired = self._checkpoint_crashes.pop(index)
                self._fired_crashes.append(fired)
                return fired
        return None

    def remaining_checkpoint_crashes(self) -> tuple[CheckpointCrash, ...]:
        return tuple(self._checkpoint_crashes)

    def fired_checkpoint_crashes(self) -> tuple[CheckpointCrash, ...]:
        """Checkpoint crashes already realised, in firing order."""
        return tuple(self._fired_crashes)

    # ------------------------------------------------------------------ #
    # Whole-schedule operations.
    # ------------------------------------------------------------------ #

    def copy(self) -> "FailureSchedule":
        """A new schedule of this one's unconsumed kills and crashes, on
        attempt 0: a run consumes the copy and leaves this one as it was."""
        return FailureSchedule(self._pending, self._checkpoint_crashes)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        """Truthiness covers *both* event families — a schedule holding only
        mid-checkpoint crashes must not read as empty."""
        return bool(self._events or self._checkpoint_crashes or self._fired_crashes)
