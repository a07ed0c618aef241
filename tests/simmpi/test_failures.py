"""Fault injection and failure detection."""

import pytest

from repro.errors import ConfigError
from repro.simmpi import (
    SUM,
    CheckpointCrash,
    FailureSchedule,
    HeartbeatFailureDetector,
    KillEvent,
    SimConfig,
    Simulator,
)


class TestFailureSchedule:
    def test_sorted_consumption(self):
        sched = FailureSchedule([KillEvent(0.5, 1), KillEvent(0.1, 0)])
        assert sched.next_time() == 0.1
        assert [e.rank for e in sched.due(0.2)] == [0]
        assert sched.next_time() == 0.5
        assert [e.rank for e in sched.due(1.0)] == [1]
        assert sched.next_time() is None

    def test_due_consumes_once(self):
        sched = FailureSchedule([KillEvent(0.1, 0)])
        assert len(sched.due(0.2)) == 1
        assert sched.due(0.3) == []

    def test_reset(self):
        sched = FailureSchedule([KillEvent(0.1, 0)])
        sched.due(1.0)
        sched.reset()
        assert sched.next_time() == 0.1

    def test_random_single_reproducible(self):
        a = FailureSchedule.random_single(5, 8, (0.0, 1.0))
        b = FailureSchedule.random_single(5, 8, (0.0, 1.0))
        assert a.remaining() == b.remaining()

    def test_random_single_window_validation(self):
        with pytest.raises(ConfigError):
            FailureSchedule.random_single(1, 4, (1.0, 1.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            KillEvent(-1.0, 0)

    def test_shifted(self):
        sched = FailureSchedule([KillEvent(0.5, 2)]).shifted(-0.2)
        assert sched.next_time() == pytest.approx(0.3)

    def test_shifted_preserves_checkpoint_crashes(self):
        """Regression: shifted() used to silently drop the mid-checkpoint
        crash family (crashes are epoch-indexed; a time shift must carry
        them over unchanged)."""
        sched = FailureSchedule(
            [KillEvent(0.5, 2)],
            checkpoint_crashes=[CheckpointCrash(rank=1, epoch=2)],
        ).shifted(0.1)
        assert sched.remaining_checkpoint_crashes() == (
            CheckpointCrash(rank=1, epoch=2),
        )
        assert sched.take_checkpoint_crash(1, 2) is not None

    def test_shifted_preserves_attempt_pins(self):
        sched = FailureSchedule([KillEvent(0.5, 2, attempt=1)]).shifted(0.1)
        assert sched.remaining() == [KillEvent(0.6, 2, attempt=1)]

    def test_reset_replays_consumed_checkpoint_crashes(self):
        """Regression: reset() promised a full rewind but only moved the
        kill cursor — a consumed crash was gone for good."""
        sched = FailureSchedule(
            [KillEvent(0.1, 0)],
            checkpoint_crashes=[CheckpointCrash(rank=1, epoch=2)],
        )
        assert sched.take_checkpoint_crash(1, 2) is not None
        assert sched.take_checkpoint_crash(1, 2) is None  # fires once
        sched.due(1.0)
        sched.begin_attempt(3)
        sched.reset()
        assert sched.next_time() == 0.1
        assert sched.current_attempt == 0
        assert sched.take_checkpoint_crash(1, 2) is not None

    def test_attempt_pinned_events_gated(self):
        sched = FailureSchedule(
            [KillEvent(0.1, 0), KillEvent(0.2, 1, attempt=2)]
        )
        # Attempt 0: only the unpinned event is visible and consumable.
        assert sched.next_time() == 0.1
        assert [e.rank for e in sched.due(5.0)] == [0]
        assert sched.next_time() is None
        # Attempt 2: the pinned event becomes eligible.
        sched.begin_attempt(2)
        assert sched.next_time() == 0.2
        assert [e.rank for e in sched.due(5.0)] == [1]

    def test_consumed_and_fired_accounting(self):
        sched = FailureSchedule(
            [KillEvent(0.1, 0)],
            checkpoint_crashes=[CheckpointCrash(rank=1, epoch=1)],
        )
        assert sched.consumed_events() == ()
        sched.due(1.0)
        assert sched.consumed_events() == (KillEvent(0.1, 0),)
        assert sched.fired_checkpoint_crashes() == ()
        sched.take_checkpoint_crash(1, 1)
        assert sched.fired_checkpoint_crashes() == (
            CheckpointCrash(rank=1, epoch=1),
        )

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigError):
            KillEvent(0.1, 0, attempt=-1)
        with pytest.raises(ConfigError):
            FailureSchedule().begin_attempt(-1)


class TestHeartbeatDetector:
    def test_silent_rank_suspected(self):
        det = HeartbeatFailureDetector(3, timeout=1.0, heartbeat_interval=0.5)
        det.heard_from(0, 0.0)
        det.heard_from(1, 0.0)
        det.heard_from(2, 0.0)
        det.heard_from(0, 2.0)
        det.heard_from(1, 2.0)
        events = det.tick(2.0)
        assert [e.rank for e in events] == [2]
        assert det.is_suspected(2)

    def test_no_false_positive_while_active(self):
        det = HeartbeatFailureDetector(2, timeout=1.0, heartbeat_interval=0.5)
        for t in range(10):
            det.heard_from(0, float(t))
            det.heard_from(1, float(t))
            assert det.tick(float(t)) == []

    def test_completed_rank_exempt(self):
        det = HeartbeatFailureDetector(2, timeout=1.0, heartbeat_interval=0.5)
        det.mark_completed(1)
        det.heard_from(0, 5.0)
        assert det.tick(5.0) == []

    def test_detection_latency_measured(self):
        det = HeartbeatFailureDetector(2, timeout=0.5, heartbeat_interval=0.25)
        det.heard_from(0, 1.0)
        det.heard_from(1, 1.0)
        det.heard_from(0, 3.0)
        det.tick(3.0)
        assert det.detection_latency(1, true_death_time=1.0) == pytest.approx(2.0)

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(2, timeout=0.0)

    def test_suspected_rank_evidence_is_error(self):
        det = HeartbeatFailureDetector(2, timeout=0.1, heartbeat_interval=0.05)
        det.heard_from(0, 0.0)
        det.tick(10.0)
        with pytest.raises(AssertionError):
            det.heard_from(0, 11.0)


def busy_worker(ctx):
    for _ in range(500):
        yield from ctx.comm.co_allreduce(1, SUM)
    return "done"


class TestEndToEndFailure:
    def test_kill_detected_and_reported(self):
        sim = Simulator(
            SimConfig(nprocs=4, seed=0, detector_timeout=0.02),
            busy_worker,
            failures=FailureSchedule.single(0.001, 3),
        )
        result = sim.run()
        assert result.failed
        assert result.dead_ranks == (3,)
        assert result.detected_at >= 0.001 + 0.02 - 1e-9

    def test_detection_latency_close_to_timeout(self):
        sim = Simulator(
            SimConfig(nprocs=4, seed=0, detector_timeout=0.05),
            busy_worker,
            failures=FailureSchedule.single(0.002, 1),
        )
        result = sim.run()
        assert result.failed
        # Detection fires within a small margin after death + timeout.
        assert result.detected_at == pytest.approx(0.002 + 0.05, rel=0.2)

    def test_multiple_kills_same_attempt(self):
        sim = Simulator(
            SimConfig(nprocs=4, seed=0, detector_timeout=0.05),
            busy_worker,
            failures=FailureSchedule([KillEvent(0.001, 0), KillEvent(0.002, 2)]),
        )
        result = sim.run()
        assert result.failed
        assert result.dead_ranks == (0, 2)

    def test_kill_before_start(self):
        sim = Simulator(
            SimConfig(nprocs=2, seed=0, detector_timeout=0.01),
            busy_worker,
            failures=FailureSchedule.single(0.0, 0),
        )
        result = sim.run()
        assert result.failed and 0 in result.dead_ranks

    def test_kill_after_completion_is_noop(self):
        def quick(ctx):
            return ctx.rank

        sim = Simulator(
            SimConfig(nprocs=2, seed=0),
            quick,
            failures=FailureSchedule.single(100.0, 1),
        )
        result = sim.run()
        assert result.completed and not result.failed


class CountingSchedule(FailureSchedule):
    """Counts how often the run loop asks for due kills."""

    due_calls = 0

    def due(self, now):
        self.due_calls += 1
        return super().due(now)


class TestRunLoopPolling:
    """The run loop peeks at the next kill time; it does not poll
    ``due()`` on every slice."""

    def test_one_kill_asks_for_due_events_at_most_twice(self):
        failures = CountingSchedule([KillEvent(0.001, 3)])
        sim = Simulator(
            SimConfig(nprocs=4, seed=0, detector_timeout=0.02),
            busy_worker,
            failures=failures,
        )
        result = sim.run()
        assert result.failed and result.dead_ranks == (3,)
        assert result.total_slices > 100
        assert 1 <= failures.due_calls <= 2
        assert failures.consumed_events() == (KillEvent(0.001, 3),)

    def test_event_pinned_to_another_attempt_is_never_polled(self):
        failures = CountingSchedule([KillEvent(0.001, 3, attempt=1)])
        sim = Simulator(SimConfig(nprocs=4, seed=0), busy_worker, failures=failures)
        result = sim.run()
        assert result.completed and not result.failed
        assert failures.due_calls == 0
        assert failures.remaining() == [KillEvent(0.001, 3, attempt=1)]
