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


class TestCodecsAndOrderings:
    @pytest.mark.parametrize("codec", ["full", "packed"])
    def test_recovery_with_both_codecs(self, codec):
        cfg = RunConfig(codec=codec, **CFG)
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
