"""Recovery correctness: suppression, deterministic replay, and the
gold-standard invariant — recovery from any failure produces exactly the
failure-free result (paper Sections 3.2, 4.2, 5.2)."""

import pytest

from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM, FailureSchedule, KillEvent


def ring_allreduce_app(n_iters=200):
    """A p2p + collective app drawing from the checkpointed RNG stream each
    round — randomness as ordinary application state (like a C ``rand``
    state living in checkpointed memory)."""

    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0, "trace": []})
        while state["i"] < n_iters:
            i = state["i"]
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            yield from ctx.mpi.co_send(float(i + ctx.rank), right, tag=1)
            v = yield from ctx.mpi.co_recv(source=left, tag=1)
            noise = ctx.rng.random()
            total = yield from ctx.mpi.co_allreduce(v + noise, SUM)
            state["acc"] += total
            if i % 16 == 0:
                state["trace"].append(round(total, 9))
            state["i"] += 1
            yield from ctx.co_potential_checkpoint()
        return (state["acc"], tuple(state["trace"]))

    return app


CFG = dict(nprocs=4, seed=13, checkpoint_interval=0.003, detector_timeout=0.04)


@pytest.fixture(scope="module")
def gold():
    cfg = RunConfig(**CFG)
    return run_with_recovery(ring_allreduce_app(), cfg)


class TestGoldStandard:
    def test_failure_free_completes(self, gold):
        assert len(gold.attempts) == 1
        assert gold.checkpoints_committed >= 1

    @pytest.mark.parametrize("kill_time", [0.002, 0.006, 0.011, 0.017, 0.023])
    @pytest.mark.parametrize("victim", [0, 2])
    def test_recovery_equals_failure_free(self, gold, kill_time, victim):
        """Kill any rank (including the initiator) at assorted points —
        early epoch 0, mid-wave, during logging, late — and the final
        answer must be bit-identical to the failure-free run."""
        cfg = RunConfig(**CFG)
        out = run_with_recovery(
            ring_allreduce_app(), cfg,
            failures=FailureSchedule.single(kill_time, victim),
        )
        assert out.results == gold.results
        assert len(out.attempts) == 2
        assert out.attempts[0].failed and out.attempts[0].dead_ranks == (victim,)

    def test_restart_uses_committed_checkpoint(self, gold):
        cfg = RunConfig(**CFG)
        out = run_with_recovery(
            ring_allreduce_app(), cfg, failures=FailureSchedule.single(0.015, 1)
        )
        assert out.results == gold.results
        assert out.attempts[1].started_from_epoch >= 1

    def test_failure_before_first_commit_restarts_fresh(self, gold):
        cfg = RunConfig(**CFG)
        out = run_with_recovery(
            ring_allreduce_app(), cfg, failures=FailureSchedule.single(0.0005, 3)
        )
        assert out.results == gold.results
        assert out.attempts[1].started_from_epoch is None

    def test_repeated_failures(self, gold):
        """Several successive attempts each killed; progress still made via
        checkpoints, and the final answer is unchanged."""
        cfg = RunConfig(**CFG)
        out = run_with_recovery(
            ring_allreduce_app(), cfg,
            failures=FailureSchedule(
                [KillEvent(0.004, 0), KillEvent(0.007, 1), KillEvent(0.005, 2)]
            ),
        )
        assert out.results == gold.results

    def test_max_restarts_enforced(self):
        from repro.errors import RecoveryError

        cfg = RunConfig(max_restarts=0, **CFG)
        with pytest.raises(RecoveryError):
            run_with_recovery(
                ring_allreduce_app(), cfg,
                failures=FailureSchedule.single(0.005, 1),
            )


class TestOrderings:
    def test_recovery_under_default_ordering(self):
        cfg = RunConfig(**CFG)
        gold = run_with_recovery(ring_allreduce_app(120), cfg)
        out = run_with_recovery(
            ring_allreduce_app(120), cfg, failures=FailureSchedule.single(0.006, 2)
        )
        assert out.results == gold.results

    def test_recovery_under_random_ordering(self):
        """Section 3.3: no FIFO assumption — the protocol must survive a
        transport that reorders everything."""
        cfg = RunConfig(ordering="random", **CFG)
        gold = run_with_recovery(ring_allreduce_app(120), cfg)
        out = run_with_recovery(
            ring_allreduce_app(120), cfg, failures=FailureSchedule.single(0.006, 1)
        )
        assert out.results == gold.results


class TestNondeterminismReplay:
    def test_rng_draws_resume_midstream(self):
        """Randomness stored as checkpointed state must resume exactly where
        the checkpoint left it: recovery equals the failure-free run even
        though the app is 'random'."""
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
            while state["i"] < 150:
                right = (ctx.rank + 1) % ctx.size
                draw = ctx.rng.random()
                yield from ctx.mpi.co_send(draw, right, tag=2)
                got = yield from ctx.mpi.co_recv(source=(ctx.rank - 1) % ctx.size, tag=2)
                state["acc"] += (yield from ctx.mpi.co_allreduce(got, SUM))
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return round(state["acc"], 12)

        cfg = RunConfig(**CFG)
        gold = run_with_recovery(app, cfg)
        out = run_with_recovery(app, cfg, failures=FailureSchedule.single(0.008, 2))
        assert out.results == gold.results

    def test_true_nondeterminism_stays_globally_consistent(self):
        """For genuinely non-deterministic events (here: virtual-time reads,
        which differ between attempts) the C3 guarantee is *consistency*,
        not gold-equality: every rank must observe the same event values,
        because logged decisions are replayed to whoever's state depends on
        them (Section 3.2)."""
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "trace": []})
            while state["i"] < 120:
                if ctx.rank == 0:
                    stamp = yield from ctx.co_nondet(lambda: round(ctx.wtime() * 1e7))
                    for dest in range(1, ctx.size):
                        yield from ctx.mpi.co_send(stamp, dest, tag=3)
                else:
                    stamp = yield from ctx.mpi.co_recv(source=0, tag=3)
                state["trace"].append(stamp)
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return tuple(state["trace"])

        cfg = RunConfig(**CFG)
        out = run_with_recovery(app, cfg, failures=FailureSchedule.single(0.010, 2))
        # All ranks agree on every observed event value.
        assert len(set(out.results)) == 1


class TestVariantSemantics:
    def test_no_checkpoint_variants_replay_from_scratch(self):
        """PIGGYBACK variant takes no checkpoints: recovery restarts the
        whole computation, still yielding the right answer."""
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
            while state["i"] < 60:
                state["acc"] += (yield from ctx.mpi.co_allreduce(state["i"], SUM))
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["acc"]

        cfg = RunConfig(variant=Variant.PIGGYBACK, **CFG)
        gold = run_with_recovery(app, cfg)
        out = run_with_recovery(app, cfg, failures=FailureSchedule.single(0.002, 1))
        assert out.results == gold.results
        assert out.attempts[1].started_from_epoch is None


#: Polls a restarted ring iteration may spend in ``co_test`` before the app
#: gives up; a live receive completes within a few dozen.  (Before the
#: restart a survivor polls until the detector notices its dead peer.)
MAX_POLLS = 1_000


def polling_ring_app():
    """A 2-rank ring that posts its receive before the iteration's
    checkpoint location and then polls it with ``co_test``.  The pending
    request is kept in the checkpointed state, so a restart resumes with a
    request restored from the checkpoint (no live receive behind it)."""

    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0, "req": None})
        nxt = (ctx.rank + 1) % ctx.size
        prev = (ctx.rank - 1) % ctx.size
        while state["i"] < 40:
            if state["req"] is None:
                state["req"] = yield from ctx.mpi.co_irecv(source=prev)
                yield from ctx.co_potential_checkpoint()
            yield from ctx.mpi.co_send(state["i"], nxt)
            for _ in range(20):
                ctx.compute(seconds=0.0002)
                yield from ctx.co_yield_point()
            n = 0
            while not (yield from ctx.mpi.co_test(state["req"])):
                n += 1
                assert not ctx.restored or n < MAX_POLLS, (
                    f"rank {ctx.rank}: co_test never completes after the restart"
                )
                yield from ctx.co_yield_point()
            state["acc"] += yield from ctx.mpi.co_wait(state["req"])
            state["req"] = None
            state["i"] += 1
        return state["acc"]

    return app


class TestPollingAfterRestore:
    @pytest.mark.parametrize("kill_time", [0.04, 0.07, 0.10])
    def test_co_test_completes_a_restored_receive(self, kill_time):
        """``co_test`` on an irecv with no live request, once replay no
        longer serves receives, posts the receive instead of answering
        False forever."""
        app = polling_ring_app()
        cfg = RunConfig(nprocs=2, seed=1, checkpoint_interval=0.002,
                        detector_timeout=0.01)
        gold = run_with_recovery(app, RunConfig(nprocs=2, seed=1,
                                                variant=Variant.PIGGYBACK))
        assert gold.results == [780, 780]
        out = run_with_recovery(app, cfg, failures=FailureSchedule.single(kill_time, 1))
        assert len(out.attempts) == 2 and out.attempts[1].started_from_epoch
        assert out.results == gold.results


def two_tag_ring_app(swap_after_restore):
    """A ring sending two tagged values per iteration; each is received by
    its tag, so the answer does not depend on the order of the receives.
    ``swap_after_restore`` makes a restored application receive tag 2
    before tag 1: a re-execution that diverges from the logged one."""

    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
        order = (2, 1) if swap_after_restore and ctx.restored else (1, 2)
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        while state["i"] < 150:
            i = state["i"]
            yield from ctx.mpi.co_send(float(i), right, tag=1)
            yield from ctx.mpi.co_send(float(ctx.rank - i), right, tag=2)
            got = {}
            for tag in order:
                got[tag] = yield from ctx.mpi.co_recv(source=left, tag=tag)
            state["acc"] += 3.0 * got[1] - got[2]
            state["i"] += 1
            yield from ctx.co_potential_checkpoint()
        return state["acc"]

    return app


def kill_mid_window():
    """Kills rank 1 after epoch 4 commits; the restored windows hold
    receives (a schedule is consumed by the run it is handed to)."""
    return FailureSchedule.single(0.015, 1)


class TestReplayDivergence:
    def test_replay_serves_the_logged_receives(self):
        """Restored mid-window: the restart serves receives from the match
        log and still equals the failure-free run."""
        cfg = RunConfig(**CFG)
        gold = run_with_recovery(two_tag_ring_app(False), cfg)
        out = run_with_recovery(two_tag_ring_app(False), cfg, failures=kill_mid_window())
        assert out.attempts[1].started_from_epoch >= 1
        assert sum(s.replayed_matches for s in out.layer_stats) > 0
        assert out.results == gold.results

    def test_receive_for_another_tag_is_a_typed_error(self):
        """A replayed receive whose tag differs from the match record's
        raises ``RecoveryError`` instead of handing back the payload of the
        message the log names."""
        from repro.errors import RecoveryError

        cfg = RunConfig(**CFG)
        with pytest.raises(RecoveryError, match="replay diverged"):
            run_with_recovery(two_tag_ring_app(True), cfg, failures=kill_mid_window())
