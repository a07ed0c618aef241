"""Detector-edge behaviour: every death is suspected one timeout later.

The simulator records each death once — a scheduled kill when it is
requested, a checkpoint crash when its slice ends — and suspects the rank
at the first loop step where ``now - death >= detector_timeout``.  These
pin the rule from the outside, through results and ``detect/suspect``
trace events:

* when every surviving rank is blocked, the clock *jumps* straight to
  ``death_time + timeout`` and the suspicion fires at exactly that time —
  detection latency is ``timeout``, not "timeout plus however long the
  loop happened to take";
* a checkpoint crash waits the same one timeout as a kill;
* a rank with a pending kill is dead from the request on, not from the
  slice where it unwinds;
* the earliest deadline ends the attempt, whichever kind of death set
  it; ties are suspected in rank order, and a rank that completed, or a
  run with no death, is never suspected;
* a kill pinned to a recovery attempt is suspected one timeout into that
  attempt, on the attempt's own clock.
"""

import pytest

from repro.api.registry import get_app
from repro.apps.laplace import LaplaceParams
from repro.errors import ConfigError
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM
from repro.simmpi.failures import CheckpointCrash, FailureSchedule, KillEvent
from repro.simmpi.simulator import SimConfig, Simulator
from repro.trace import TraceRecorder


def _deaf_pair(ctx):
    """Both ranks block on a receive that is never posted."""
    peer = 1 - ctx.rank
    return (yield from ctx.comm.co_recv(source=peer, tag=99))


def _deaf_ring(ctx):
    """Every rank blocks on a receive from its right neighbour."""
    return (yield from ctx.comm.co_recv(source=(ctx.rank + 1) % ctx.size, tag=99))


def _allreduce_loop(ctx):
    for _ in range(500):
        yield from ctx.comm.co_allreduce(1, SUM)
    return "done"


def _run_traced(main, nprocs, timeout, failures, **config):
    tracer = TraceRecorder(capacity=None)
    sim = Simulator(
        SimConfig(nprocs=nprocs, seed=3, detector_timeout=timeout, **config),
        main,
        failures=failures,
        tracer=tracer,
    )
    return sim.run(), tracer.events


def _suspects(events):
    return [e for e in events if (e.category, e.name) == ("detect", "suspect")]


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
        result, events = _run_traced(
            _deaf_pair, 2, timeout, FailureSchedule.single(kill_time, rank=1)
        )
        assert result.failed
        assert result.dead_ranks == (1,)
        # The kill lands via an exact advance_to jump (everyone is blocked),
        # so death time is exactly the scheduled time and detection is
        # exactly one timeout later — up to the event loop's 1e-12 tie-break
        # nudge when float subtraction rounds (now - death) below timeout.
        assert result.detected_at == pytest.approx(kill_time + timeout, abs=1e-9)
        [suspect] = _suspects(events)
        assert suspect.rank == 1
        assert suspect.t == result.detected_at
        assert suspect.payload["last_heard"] == kill_time
        # Never early: a suspicion before death + timeout is a detector bug.
        assert result.detected_at >= kill_time + timeout - 1e-12

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(nprocs=2, detector_timeout=0.0)


def _record_deaths(monkeypatch):
    """Collect ``(rank, time)`` for every death the simulator handles."""
    deaths = []
    handle_new_death = Simulator._handle_new_death

    def record_death(sim, proc):
        deaths.append((proc.rank, sim.clock.now))
        handle_new_death(sim, proc)

    monkeypatch.setattr(Simulator, "_handle_new_death", record_death)
    return deaths


def _laplace_with_recovery(failures, timeout):
    tracer = TraceRecorder(capacity=None)
    out = run_with_recovery(
        get_app("laplace").build(LaplaceParams(n=16, iterations=60)),
        RunConfig(
            nprocs=4, seed=17, variant=Variant.FULL,
            checkpoint_interval=0.001, detector_timeout=timeout,
        ),
        failures=failures,
        tracer=tracer,
    )
    return out, tracer.events


class TestCheckpointCrashLatency:
    """A rank that dies inside its checkpoint write is suspected one timeout
    after the slice it died in, exactly like a scheduled kill."""

    @pytest.mark.parametrize("timeout", [0.0005, 0.001, 0.002])
    def test_crash_is_suspected_one_timeout_after_death(self, monkeypatch, timeout):
        deaths = _record_deaths(monkeypatch)
        out, events = _laplace_with_recovery(
            FailureSchedule(
                [],
                checkpoint_crashes=[CheckpointCrash(rank=1, epoch=3, after_chunks=0)],
            ),
            timeout,
        )
        assert out.completed and out.restarts == 1
        assert out.attempts[0].dead_ranks == (1,)
        [(rank, death)] = deaths
        assert rank == 1
        [suspect] = _suspects(events)
        assert suspect.rank == 1 and suspect.attempt == 0
        assert suspect.payload["last_heard"] == death
        assert suspect.t - death == pytest.approx(timeout, abs=1e-9)


def _busy(ctx):
    for _ in range(4000):
        yield from ctx.co_yield_point()
    return ctx.rank


class TestPendingKill:
    def test_pending_kill_is_dead_from_the_request(self, monkeypatch):
        """The victim unwinds in a later slice than the kill request; its
        deadline still runs from the request."""
        unwound = []
        handle_new_death = Simulator._handle_new_death

        def record_death(sim, proc):
            unwound.append(sim.clock.now)
            handle_new_death(sim, proc)

        monkeypatch.setattr(Simulator, "_handle_new_death", record_death)
        timeout = 0.0003
        result, events = _run_traced(
            _busy, 2, timeout, FailureSchedule.single(0.0005, rank=1),
            sched_policy="round_robin",
        )
        assert result.failed and result.dead_ranks == (1,)
        [kill] = [e for e in events if (e.category, e.name) == ("fail", "kill")]
        [suspect] = _suspects(events)
        requested = kill.t
        assert unwound[0] > requested
        assert suspect.payload["last_heard"] == requested
        # The survivor keeps the clock moving one step per slice, so the
        # suspicion lands on the first step at or past the deadline.
        step = SimConfig(nprocs=1).cost_model.step
        assert requested + timeout - 1e-12 <= suspect.t < requested + timeout + step


class TestSeveralDeaths:
    def test_earlier_deadline_wins(self):
        result, events = _run_traced(
            _deaf_ring, 3, 0.05,
            FailureSchedule([KillEvent(0.01, 2), KillEvent(0.02, 0)]),
        )
        assert result.failed
        assert result.dead_ranks == (0, 2)
        assert result.detected_at == pytest.approx(0.06, abs=1e-9)
        assert [e.rank for e in _suspects(events)] == [2]

    def test_simultaneous_deadlines_suspect_in_rank_order(self):
        result, events = _run_traced(
            _deaf_ring, 3, 0.05,
            FailureSchedule([KillEvent(0.01, 2), KillEvent(0.01, 0)]),
        )
        assert result.dead_ranks == (0, 2)
        suspects = _suspects(events)
        assert [e.rank for e in suspects] == [0, 2]
        assert {e.t for e in suspects} == {result.detected_at}
        assert result.detected_at == pytest.approx(0.06, abs=1e-9)

    def test_a_second_kill_does_not_move_the_death(self):
        """A death is recorded once: killing the same rank again later
        leaves its deadline where the first kill put it."""
        result, events = _run_traced(
            _deaf_ring, 3, 0.05,
            FailureSchedule([KillEvent(0.01, 1), KillEvent(0.03, 1)]),
        )
        assert result.dead_ranks == (1,)
        assert result.detected_at == pytest.approx(0.06, abs=1e-9)
        assert _suspects(events)[0].payload["last_heard"] == 0.01


class TestMixedDeaths:
    def test_crash_deadline_beats_a_later_kill(self, monkeypatch):
        """A checkpoint crash and a kill share one deadline table: the
        crash dies first, so it alone is suspected, one timeout after its
        death, although the kill landed inside that timeout."""
        deaths = _record_deaths(monkeypatch)
        timeout = 0.002
        out, events = _laplace_with_recovery(
            FailureSchedule(
                [KillEvent(0.005, 2)],
                checkpoint_crashes=[CheckpointCrash(rank=1, epoch=3, after_chunks=0)],
            ),
            timeout,
        )
        assert out.completed and out.restarts == 1
        assert out.attempts[0].dead_ranks == (1, 2)
        crash_death = dict(deaths)[1]
        [kill] = [e for e in events if (e.category, e.name) == ("fail", "kill")]
        assert kill.rank == 2 and crash_death < kill.t < crash_death + timeout
        [suspect] = _suspects(events)
        assert suspect.rank == 1
        assert suspect.payload["last_heard"] == crash_death
        assert suspect.t - crash_death == pytest.approx(timeout, abs=1e-9)


class TestRecoveryAttempt:
    def test_pinned_kill_is_suspected_one_timeout_into_its_attempt(self):
        """Attempt 1 runs on a fresh clock: its pinned kill's deadline is
        measured from that clock, not carried over from attempt 0."""
        timeout = 0.0005
        out, events = _laplace_with_recovery(
            FailureSchedule([KillEvent(0.002, 0), KillEvent(0.001, 2, attempt=1)]),
            timeout,
        )
        assert out.completed and out.restarts == 2
        assert [a.dead_ranks for a in out.attempts] == [(0,), (2,), ()]
        kills = [e for e in events if (e.category, e.name) == ("fail", "kill")]
        suspects = _suspects(events)
        assert [(e.rank, e.attempt) for e in kills] == [(0, 0), (2, 1)]
        assert [(e.rank, e.attempt) for e in suspects] == [(0, 0), (2, 1)]
        offsets = [0.0, out.attempts[0].virtual_time]
        for kill, suspect, offset in zip(kills, suspects, offsets):
            # Trace times are global; last_heard is on the attempt's clock.
            assert suspect.payload["last_heard"] + offset == pytest.approx(
                kill.t, abs=1e-12
            )
            assert suspect.t - kill.t == pytest.approx(timeout, abs=1e-9)
        assert suspects[1].payload["last_heard"] < 0.002


class TestSurvivors:
    def test_only_the_dead_rank_is_suspected(self):
        """The survivors block in the next allreduce and stay unsuspected;
        the failed run tears them down without a result."""
        result, events = _run_traced(
            _allreduce_loop, 4, 0.02, FailureSchedule.single(0.001, rank=3)
        )
        assert result.failed and result.dead_ranks == (3,)
        [suspect] = _suspects(events)
        assert suspect.rank == 3
        assert suspect.t == result.detected_at
        assert result.results == [None] * 4

    def test_survivors_that_finish_first_still_see_the_death(self):
        """Rank 0 returns at once and rank 1 is killed later, so nobody is
        left to move the clock: the run jumps to the deadline and still
        reports the death."""
        mains = [lambda ctx: ctx.rank, _busy]
        timeout = 0.0002
        result, events = _run_traced(
            mains, 2, timeout, FailureSchedule.single(0.0001, rank=1)
        )
        assert result.failed and not result.completed
        assert result.dead_ranks == (1,)
        assert result.results[0] == 0
        [kill] = [e for e in events if (e.category, e.name) == ("fail", "kill")]
        [suspect] = _suspects(events)
        assert suspect.rank == 1 and suspect.payload["last_heard"] == kill.t
        assert result.detected_at == pytest.approx(kill.t + timeout, abs=1e-9)
        assert result.detected_at >= kill.t + timeout - 1e-12


class TestNoDeath:
    def test_failure_free_run_is_never_suspected(self):
        """A timeout far shorter than the run suspects nobody when nobody
        dies."""
        result, events = _run_traced(_allreduce_loop, 4, 1e-6, FailureSchedule.none())
        assert result.completed and not result.failed
        assert result.detected_at is None and result.dead_ranks == ()
        assert result.virtual_time > 1e-6
        assert _suspects(events) == []


class TestCompletedRank:
    def test_completed_rank_is_never_suspected(self):
        """Rank 1 returns at once; its later kill is ignored, and rank 0
        runs well past the would-be deadline without a suspicion."""
        mains = [_busy, lambda ctx: ctx.rank]
        result, events = _run_traced(
            mains, 2, 0.0002, FailureSchedule.single(0.0001, rank=1)
        )
        assert result.completed and not result.failed
        assert result.dead_ranks == ()
        assert result.virtual_time > 0.0001 + 0.0002
        assert _suspects(events) == []


class TestAllRanksDeadTermination:
    """Regression: when every rank dies before detection, the time jump to
    the detector fire must carry the 1e-12 tie-break.  Float rounding can
    put ``(death + timeout) - death`` just below ``timeout`` (2.03 - 2.0 <
    0.03 in IEEE doubles), and a bare jump to the fire time then spins the
    event loop forever."""

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
