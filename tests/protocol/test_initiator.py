"""Initiator state machine (paper Section 4.1 phases), tested in isolation."""

import pytest

from repro.protocol import control as ctl
from repro.protocol.initiator import Initiator, WavePhase
from repro.simmpi import coop


class Harness:
    """Fake control fabric recording everything the initiator sends.

    Outside a simulator nothing suspends, so each generator step is run to
    completion with ``coop.drive``.
    """

    def __init__(self, nprocs=4, interval=10.0):
        self.sent = []          # (message, dest)
        self.commits = []       # (epoch, time)
        self.now = 0.0
        self.initiator = Initiator(
            nprocs=nprocs,
            interval=interval,
            co_send_control=self.co_send_control,
            commit=lambda epoch, t: self.commits.append((epoch, t)),
            now=lambda: self.now,
        )

    def co_send_control(self, msg, dest):
        self.sent.append((msg, dest))
        yield from ()

    def initiate(self, current_epoch):
        coop.drive(self.initiator.co_initiate(current_epoch))

    def poll(self, current_epoch):
        coop.drive(self.initiator.co_poll(current_epoch))

    def on_ready(self, rank, epoch):
        coop.drive(self.initiator.co_on_ready(rank, epoch))


class TestWaveLifecycle:
    def test_initiate_broadcasts_please_checkpoint(self):
        h = Harness()
        h.initiate(current_epoch=0)
        assert h.initiator.phase is WavePhase.COLLECTING_READY
        assert h.initiator.target_epoch == 1
        assert h.sent == [
            (ctl.pack_control(ctl.PLEASE_CHECKPOINT, 1), rank) for rank in range(4)
        ]
        assert ctl.unpack_control(h.sent[0][0]) == (ctl.PLEASE_CHECKPOINT, 1, 0)

    def test_all_ready_triggers_stop_logging(self):
        h = Harness()
        h.initiate(0)
        h.sent.clear()
        for rank in range(4):
            h.on_ready(rank, epoch=1)
        assert h.sent == [
            (ctl.pack_control(ctl.STOP_LOGGING, 1), rank) for rank in range(4)
        ]
        assert h.initiator.phase is WavePhase.COLLECTING_STOPPED

    def test_partial_ready_does_not_stop(self):
        h = Harness()
        h.initiate(0)
        h.sent.clear()
        for rank in range(3):
            h.on_ready(rank, epoch=1)
        assert h.sent == []

    def test_all_stopped_commits(self):
        h = Harness()
        h.initiate(0)
        for rank in range(4):
            h.on_ready(rank, epoch=1)
        h.now = 5.0
        for rank in range(4):
            h.initiator.on_stopped(rank, epoch=1)
        assert h.commits == [(1, 5.0)]
        assert h.initiator.phase is WavePhase.IDLE
        assert h.initiator.last_commit_time == 5.0

    def test_early_stopped_before_stop_logging(self):
        """Phase 4 condition (ii): stoppedLogging may precede stopLogging."""
        h = Harness()
        h.initiate(0)
        h.initiator.on_stopped(2, epoch=1)  # early terminator
        for rank in range(4):
            h.on_ready(rank, epoch=1)
        for rank in (0, 1, 3):
            h.initiator.on_stopped(rank, epoch=1)
        assert len(h.commits) == 1

    def test_stale_tokens_ignored(self):
        h = Harness()
        h.initiate(0)
        h.on_ready(0, epoch=99)
        assert h.initiator.ready == set()
        h.initiator.on_stopped(0, epoch=0)
        assert h.initiator.stopped == set()

    def test_wave_stats_recorded(self):
        h = Harness()
        h.now = 1.0
        h.initiate(0)
        h.now = 2.0
        for rank in range(4):
            h.on_ready(rank, epoch=1)
        h.now = 3.0
        for rank in range(4):
            h.initiator.on_stopped(rank, epoch=1)
        (wave,) = h.initiator.completed_waves
        assert wave.epoch == 1
        assert wave.initiated_at == 1.0
        assert wave.committed_at == 3.0
        assert wave.duration == pytest.approx(2.0)


class TestPolling:
    def test_poll_respects_interval(self):
        h = Harness(interval=10.0)
        h.now = 5.0
        h.poll(current_epoch=0)
        assert h.initiator.phase is WavePhase.IDLE
        h.now = 10.0
        h.poll(current_epoch=0)
        assert h.initiator.phase is WavePhase.COLLECTING_READY

    def test_poll_never_overlaps_waves(self):
        h = Harness(interval=1.0)
        h.now = 100.0
        h.poll(0)
        sent_before = len(h.sent)
        h.now = 200.0
        h.poll(0)  # wave still collecting: no second initiation
        assert len(h.sent) == sent_before

    def test_interval_none_never_fires(self):
        h = Harness(interval=None)
        h.now = 1e9
        h.poll(0)
        assert h.initiator.phase is WavePhase.IDLE

    def test_force_initiate(self):
        h = Harness(interval=None)
        h.initiator.force_initiate = True
        h.poll(0)
        assert h.initiator.phase is WavePhase.COLLECTING_READY


class TestRecoveryQuiescence:
    def test_waves_blocked_until_replay_done(self):
        h = Harness(interval=1.0)
        h.initiator.begin_recovery({0, 1, 2, 3})
        h.now = 100.0
        h.poll(5)
        assert h.initiator.phase is WavePhase.IDLE
        for rank in range(4):
            h.initiator.on_replay_done(rank)
        h.poll(5)
        assert h.initiator.phase is WavePhase.COLLECTING_READY
        assert h.initiator.target_epoch == 6

    def test_begin_recovery_resets_wave_state(self):
        h = Harness()
        h.initiate(0)
        h.on_ready(1, epoch=1)
        h.initiator.begin_recovery({0, 1, 2, 3})
        assert h.initiator.phase is WavePhase.IDLE
        assert h.initiator.ready == set()
