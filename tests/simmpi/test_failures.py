"""Fault injection and end-to-end failure detection.

Detection timing edge cases live in ``test_detector_edge.py``."""

import pytest

from repro.errors import ConfigError
from repro.simmpi import (
    SUM,
    CheckpointCrash,
    FailureSchedule,
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

    def test_copy_holds_the_unconsumed_events(self):
        sched = FailureSchedule([KillEvent(0.1, 0), KillEvent(0.5, 1)])
        sched.due(0.2)
        copy = sched.copy()
        assert copy.remaining() == [KillEvent(0.5, 1)]
        assert copy.consumed_events() == ()

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            KillEvent(-1.0, 0)

    def test_consuming_a_copy_leaves_the_original_as_it_was(self):
        """A copy restarts on attempt 0 with its own kills and crashes."""
        sched = FailureSchedule(
            [KillEvent(0.1, 0), KillEvent(0.2, 1, attempt=0)],
            checkpoint_crashes=[CheckpointCrash(rank=1, epoch=2)],
        )
        sched.begin_attempt(3)
        copy = sched.copy()
        assert [e.rank for e in copy.due(1.0)] == [0, 1]
        assert copy.take_checkpoint_crash(1, 2) is not None
        assert copy.take_checkpoint_crash(1, 2) is None  # fires once
        assert sched.remaining() == [KillEvent(0.1, 0), KillEvent(0.2, 1, attempt=0)]
        assert sched.remaining_checkpoint_crashes() == (CheckpointCrash(rank=1, epoch=2),)
        assert sched.consumed_events() == () and sched.fired_checkpoint_crashes() == ()

    def test_a_fired_crash_still_counts_as_a_fault(self):
        sched = FailureSchedule.during_checkpoint(rank=1, epoch=2)
        assert sched.take_checkpoint_crash(1, 2) is not None
        assert sched and not sched.copy()

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


def busy_worker(ctx):
    # A collective suspends only where it waits, so each iteration also
    # gives way once, as a rank between compute phases would.
    for _ in range(500):
        yield from ctx.comm.co_allreduce(1, SUM)
        yield from ctx.co_yield_point()
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
