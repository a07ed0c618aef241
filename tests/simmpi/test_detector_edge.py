"""Detector-edge behaviour: exact detection latency and liveness refresh.

These pin the two subtle rules the simulator's event loop relies on:

* when every surviving rank is blocked, the clock *jumps* straight to
  ``death_time + timeout`` and the suspicion fires at exactly that time —
  detection latency is ``timeout``, not "timeout plus however long the
  loop happened to take";
* ``_refresh_liveness`` never refreshes a rank with a pending kill (its
  death time is already recorded); refreshing it would push ``last_heard``
  past ``death_time`` and stall the detector-fire time jump.
"""

import pytest

from repro.simmpi.failures import FailureSchedule, KillEvent
from repro.simmpi.process import ProcState
from repro.simmpi.simulator import SimConfig, Simulator


def _deaf_pair(ctx):
    """Both ranks block on a receive that is never posted."""
    peer = 1 - ctx.rank
    return (yield from ctx.comm.co_recv(source=peer, tag=99))


class TestExactDetectionLatency:
    @pytest.mark.parametrize(
        "kill_time,timeout",
        [
            (0.01, 0.25),   # default-ish detector
            (0.001, 5.0),   # huge timeout: one very large advance_to jump
            (2.0, 0.03),    # late kill, tight detector
        ],
    )
    def test_latency_is_exactly_timeout_under_time_jumps(self, kill_time, timeout):
        """With all survivors blocked, time advances only by event jumps, so
        the suspicion must land at exactly ``death + timeout``."""
        sim = Simulator(
            SimConfig(nprocs=2, seed=3, detector_timeout=timeout),
            _deaf_pair,
            failures=FailureSchedule.single(kill_time, rank=1),
        )
        result = sim.run()
        assert result.failed
        assert result.dead_ranks == (1,)
        # The kill lands via an exact advance_to jump (everyone is blocked),
        # so death time is exactly the scheduled time and detection is
        # exactly one timeout later — up to the event loop's 1e-12 tie-break
        # nudge when float subtraction rounds (now - death) below timeout.
        assert result.detected_at == pytest.approx(kill_time + timeout, abs=1e-9)
        assert sim.detector.detection_latency(1, kill_time) == pytest.approx(
            timeout, abs=1e-9
        )
        # Never early: a suspicion before death + timeout is a detector bug.
        assert result.detected_at >= kill_time + timeout - 1e-12


class TestRefreshLivenessWithPendingKill:
    def test_pending_kill_rank_is_never_refreshed(self):
        sim = Simulator(SimConfig(nprocs=3, seed=0), lambda ctx: None)
        for proc in sim.procs:
            proc.state = ProcState.RUNNABLE
        # Rank 1 has a kill pending: its death time is recorded but the
        # rank has not yet unwound to DEAD.
        sim._death_time[1] = 0.005
        sim.clock.advance_to(0.02)
        before = sim.detector._last_heard[1]
        sim._refresh_liveness()
        # Pinned: the doomed rank's liveness is frozen at its last genuine
        # activity, while healthy ranks are refreshed to "now".
        assert sim.detector._last_heard[1] == before
        assert sim.detector._last_heard[0] == 0.02
        assert sim.detector._last_heard[2] == 0.02

    def test_detector_fire_time_not_stalled_by_refresh(self):
        """With the doomed rank frozen, the next-fire estimate stays at
        ``death + timeout`` no matter how often liveness is refreshed."""
        timeout = 0.25
        sim = Simulator(
            SimConfig(nprocs=2, seed=0, detector_timeout=timeout),
            lambda ctx: None,
        )
        for proc in sim.procs:
            proc.state = ProcState.RUNNABLE
        sim._death_time[1] = 0.01
        for t in (0.02, 0.05, 0.2):
            sim.clock.advance_to(t)
            sim._refresh_liveness()
            assert sim._next_detector_fire() == 0.01 + timeout
        # Once the detector actually suspects the rank, the jump target
        # disappears (nothing left to wait for).
        sim.clock.advance_to(0.01 + timeout)
        assert sim.detector.tick(sim.clock.now)
        assert sim._next_detector_fire() is None


class TestAllRanksDeadTermination:
    """Regression: when every rank dies before detection, the time jump to
    the detector fire must carry the 1e-12 tie-break.  With ``last_heard ==
    death_time``, float rounding can put ``(death + timeout) - death`` just
    below ``timeout`` (2.03 - 2.0 < 0.03 in IEEE doubles), and a bare jump
    to the fire time then spins the event loop forever."""

    def test_whole_world_killed_still_detects(self):
        sim = Simulator(
            SimConfig(nprocs=2, seed=0, detector_timeout=0.03),
            _deaf_pair,
            failures=FailureSchedule(
                [KillEvent(2.0, 0), KillEvent(2.0, 1)]
            ),
        )
        result = sim.run()  # pre-fix: never returns
        assert result.failed
        assert result.dead_ranks == (0, 1)
        assert result.detected_at == pytest.approx(2.03, abs=1e-9)
