"""Scheduler and simulator-level behaviour: determinism, policies, guards."""

import pytest

from repro.errors import ConfigError, SimMPIError
from repro.simmpi import SUM, SimConfig, Simulator, coop, run_simple


def chatty(ctx):
    acc = ctx.rank
    for _ in range(15):
        acc = yield from ctx.comm.co_allreduce(acc + 1, SUM)
    return acc


class TestDeterminism:
    def test_same_seed_identical_run(self):
        a = run_simple(chatty, nprocs=5, seed=42, ordering="random")
        b = run_simple(chatty, nprocs=5, seed=42, ordering="random")
        assert a.results == b.results
        assert a.virtual_time == b.virtual_time
        assert a.total_slices == b.total_slices
        assert a.network.delivered == b.network.delivered

    def test_different_seed_different_interleaving(self):
        a = run_simple(chatty, nprocs=5, seed=1, ordering="random")
        b = run_simple(chatty, nprocs=5, seed=2, ordering="random")
        # Results identical (deterministic algorithm)...
        assert a.results == b.results
        # ...but the schedule differs.
        assert a.virtual_time != b.virtual_time or a.total_slices != b.total_slices

    def test_round_robin_policy(self):
        # With zero network jitter, a round-robin schedule is completely
        # seed-independent (the seed only feeds the network delay RNG).
        a = run_simple(chatty, nprocs=4, seed=0, sched_policy="round_robin", jitter=0.0)
        b = run_simple(chatty, nprocs=4, seed=9, sched_policy="round_robin", jitter=0.0)
        assert a.completed and b.completed
        assert a.total_slices == b.total_slices


class TestConfigValidation:
    def test_zero_procs_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(nprocs=0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            Simulator(SimConfig(nprocs=2, sched_policy="lifo"), lambda ctx: None)

    def test_wrong_main_count_rejected(self):
        with pytest.raises(ConfigError):
            Simulator(SimConfig(nprocs=3), [lambda ctx: None] * 2)


class TestGuards:
    def test_max_slices_livelock_guard(self):
        def spinner(ctx):
            while True:
                yield from ctx.co_yield_point()

        with pytest.raises(SimMPIError, match="max_slices"):
            run_simple(spinner, nprocs=2, seed=0, max_slices=500)

    def test_application_exception_propagates(self):
        def buggy(ctx):
            if ctx.rank == 1:
                raise ValueError("application bug")
            yield from ctx.comm.co_recv(source=1)

        with pytest.raises(ValueError, match="application bug"):
            run_simple(buggy, nprocs=2, seed=0)

    def test_sync_call_that_must_suspend_names_the_fix(self):
        def plain(ctx):
            coop.drive(ctx.comm.co_send("x", dest=1 - ctx.rank))

        with pytest.raises(SimMPIError, match="generator function.*PrecompiledApp"):
            run_simple(plain, nprocs=2, seed=0)

    def test_simulator_single_use(self):
        sim = Simulator(SimConfig(nprocs=1), lambda ctx: 1)
        sim.run()
        with pytest.raises(SimMPIError):
            sim.run()


class TestPerRankMains:
    def test_distinct_mains(self):
        def producer(ctx):
            yield from ctx.comm.co_send("payload", dest=1)
            return "sent"

        def consumer(ctx):
            return (yield from ctx.comm.co_recv(source=0))

        result = run_simple([producer, consumer], nprocs=2, seed=0)
        assert result.results == ["sent", "payload"]


class TestStatsAndResults:
    def test_results_in_rank_order(self):
        result = run_simple(lambda ctx: ctx.rank * 10, nprocs=4, seed=0)
        assert result.results == [0, 10, 20, 30]

    def test_wall_and_virtual_time_recorded(self):
        result = run_simple(chatty, nprocs=3, seed=0)
        assert result.wall_seconds > 0
        assert result.virtual_time > 0

    def test_network_stats_balance(self):
        result = run_simple(chatty, nprocs=4, seed=0)
        assert result.network.posted == result.network.delivered


class TestRoundRobinCursor:
    """Regression: the single-runnable fast path must advance the cursor."""

    @staticmethod
    def _scheduler():
        from types import SimpleNamespace

        from repro.simmpi.scheduler import Scheduler

        # pick_rank() never touches the simulator, only policy state.
        return Scheduler(sim=SimpleNamespace(), seed=0, policy="round_robin")

    def test_solo_slice_advances_cursor(self):
        sched = self._scheduler()
        everyone = [0, 1, 2, 3]
        assert sched.pick_rank(everyone) == 0  # cursor -> 1
        # A solo slice for rank 2 (everyone else briefly blocked) is a real
        # turn: the cursor must move past rank 2 …
        assert sched.pick_rank([2]) == 2
        # … so the next full pick resumes *after* it, not back at rank 1.
        assert sched.pick_rank(everyone) == 3

    def test_grant_sequence_after_solo_slice(self):
        sched = self._scheduler()
        everyone = [0, 1, 2, 3]
        grants = [sched.pick_rank(everyone) for _ in range(2)]  # 0, 1
        grants.append(sched.pick_rank([3]))                     # solo 3
        grants.extend(sched.pick_rank(everyone) for _ in range(3))
        # After the solo slice at rank 3 the cycle wraps to rank 0 — the
        # stale-cursor bug replayed rank 2 and 3 before wrapping.
        assert grants == [0, 1, 3, 0, 1, 2]

