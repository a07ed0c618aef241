"""The protocol initiator (paper Section 4.1).

"A distinguished process called the initiator is responsible for initiating
and monitoring the protocol."  In this implementation the initiator logic is
a component embedded in rank 0's protocol layer; it runs whenever that layer
processes control traffic.

Wave lifecycle::

    IDLE --initiate()--> COLLECTING_READY --all readyToStopLogging-->
         (send stopLogging to all) COLLECTING_STOPPED
         --all stoppedLogging--> commit + gc --> IDLE

Two safety rules:

* at most one wave in flight (the paper's standing assumption that a global
  checkpoint completes before the next begins);
* after a restart, no wave may begin until every rank has reported
  ``ReplayDone`` — a checkpoint taken mid-replay would have to carry
  partially consumed logs, a complication the paper does not require.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.protocol.control import PleaseCheckpoint, StopLogging
from repro.simmpi import coop


class WavePhase(enum.Enum):
    IDLE = "idle"
    COLLECTING_READY = "collecting-ready"
    COLLECTING_STOPPED = "collecting-stopped"


@dataclass
class WaveStats:
    """Timing/counting record for one completed checkpoint wave."""

    epoch: int
    initiated_at: float
    committed_at: float = 0.0
    ready_times: dict[int, float] = field(default_factory=dict)
    stopped_times: dict[int, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.committed_at - self.initiated_at


class Initiator:
    """Coordinator state machine, embedded in rank 0's layer."""

    def __init__(
        self,
        nprocs: int,
        interval: Optional[float],
        send_control: Callable[[object, int], None],
        commit: Callable[[int, float], None],
        now: Callable[[], float],
        co_send_control: Optional[Callable[[object, int], Any]] = None,
    ) -> None:
        self.nprocs = nprocs
        self.interval = interval
        self._send_control = send_control
        #: Generator-function variant of ``send_control`` (the pipeline's
        #: ``_co_send_control``).  When set, the co_* methods route control
        #: traffic through it so a send is a resumable scheduling point;
        #: when absent (unit harnesses), the synchronous callback is used.
        self._co_send_control = co_send_control
        self._commit = commit
        self._now = now
        self.phase = WavePhase.IDLE
        self.target_epoch = 0
        self.ready: set[int] = set()
        self.stopped: set[int] = set()
        self.last_commit_time = 0.0
        self.awaiting_replay: set[int] = set()
        self.completed_waves: list[WaveStats] = []
        self._current: Optional[WaveStats] = None
        #: One-shot trigger for tests / explicit checkpoint requests.
        self.force_initiate = False

    # ------------------------------------------------------------------ #

    def begin_recovery(self, ranks: set[int]) -> None:
        """Block wave initiation until these ranks report ReplayDone."""
        self.awaiting_replay = set(ranks)
        self.phase = WavePhase.IDLE
        self.ready.clear()
        self.stopped.clear()

    def on_replay_done(self, rank: int) -> None:
        self.awaiting_replay.discard(rank)

    # ------------------------------------------------------------------ #
    # Wave lifecycle.  Each step is written once, as a generator (the
    # cooperative form); the synchronous entry points run the generator to
    # completion.  Outside a simulator (unit harnesses with recording
    # callbacks) the generators never suspend, so the sync wrappers are
    # exact equivalents of the historical methods.
    # ------------------------------------------------------------------ #

    def _co_send(self, msg: object, dest: int):
        if self._co_send_control is not None:
            yield from self._co_send_control(msg, dest)
        else:
            self._send_control(msg, dest)

    def poll(self, current_epoch: int) -> None:
        """Called from the layer's progress engine; may start a wave."""
        coop.drive(self.co_poll(current_epoch))

    def wave_due(self) -> bool:
        """Whether a poll would start a wave now (the idle rule's test)."""
        if self.phase is not WavePhase.IDLE or self.awaiting_replay:
            return False
        return self.force_initiate or (
            self.interval is not None
            and self._now() - self.last_commit_time >= self.interval
        )

    def co_poll(self, current_epoch: int):
        if self.wave_due():
            self.force_initiate = False
            yield from self.co_initiate(current_epoch)

    def initiate(self, current_epoch: int) -> None:
        """Phase 1: ask every process to checkpoint into ``current_epoch+1``."""
        coop.drive(self.co_initiate(current_epoch))

    def co_initiate(self, current_epoch: int):
        self.target_epoch = current_epoch + 1
        self.phase = WavePhase.COLLECTING_READY
        self.ready.clear()
        self.stopped.clear()
        self._current = WaveStats(epoch=self.target_epoch, initiated_at=self._now())
        msg = PleaseCheckpoint(epoch=self.target_epoch)
        for rank in range(self.nprocs):
            yield from self._co_send(msg, rank)

    def on_ready(self, rank: int, epoch: int) -> None:
        """Phase 2→3: collect readyToStopLogging; broadcast stopLogging."""
        coop.drive(self.co_on_ready(rank, epoch))

    def co_on_ready(self, rank: int, epoch: int):
        if epoch != self.target_epoch:
            return  # stale token from an aborted attempt
        self.ready.add(rank)
        if self._current is not None:
            self._current.ready_times[rank] = self._now()
        if self.phase is WavePhase.COLLECTING_READY and len(self.ready) == self.nprocs:
            self.phase = WavePhase.COLLECTING_STOPPED
            msg = StopLogging(epoch=self.target_epoch)
            for r in range(self.nprocs):
                yield from self._co_send(msg, r)
            self._check_commit()

    def on_stopped(self, rank: int, epoch: int) -> None:
        """Phase 4: collect stoppedLogging; commit when complete.

        Note that stoppedLogging can legitimately arrive *before* the
        initiator broadcasts stopLogging: a process may terminate its log
        early upon receiving a message from a process that already stopped
        (paper Section 4.1, phase 4 condition (ii)).
        """
        if epoch != self.target_epoch:
            return
        self.stopped.add(rank)
        if self._current is not None:
            self._current.stopped_times[rank] = self._now()
        self._check_commit()

    def _check_commit(self) -> None:
        if (
            self.phase is WavePhase.COLLECTING_STOPPED
            and len(self.stopped) == self.nprocs
        ):
            now = self._now()
            self._commit(self.target_epoch, now)
            self.last_commit_time = now
            self.phase = WavePhase.IDLE
            if self._current is not None:
                self._current.committed_at = now
                self.completed_waves.append(self._current)
                self._current = None
