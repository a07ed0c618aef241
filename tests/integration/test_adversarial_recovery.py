"""Adversarial end-to-end recovery: sweep kill times across the whole run,
vary victims, orderings, codecs and process counts, and require the
recovered result to equal the failure-free result every single time.

This is the strongest test a checkpointing system can face: if any protocol
rule (late-message logging, early-ID suppression, replay matching,
collective-result logging, barrier alignment) is wrong for *any* reachable
interleaving, some kill time in the sweep exposes it as a wrong answer,
a deadlock, or a protocol assertion.
"""

import copy

import pytest

from repro.apps import laplace, neurosys
from repro.runtime import RunConfig, Variant, run_with_recovery
from repro.simmpi import SUM, FailureSchedule, KillEvent
from repro.statesave import Storage
from repro.trace import TraceRecorder


def mixed_traffic_app(n_iters=160):
    """Exercises p2p (multiple tags), isend/irecv, collectives, barriers and
    checkpointed randomness in one loop.

    Barriers sit at the top of the iteration: a barrier is a potential
    checkpoint location (the paper's Section 4.5 epoch alignment can force a
    local checkpoint there), so manual-state applications must keep their
    registered state resume-consistent at every barrier call — here, the
    loop-top position where the whole iteration can safely re-run.
    """

    def app(ctx):
        state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
        while state["i"] < n_iters:
            i = state["i"]
            if i % 20 == 0:
                yield from ctx.mpi.co_barrier()
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            req = yield from ctx.mpi.co_isend(float(i), right, tag=1)
            yield from ctx.mpi.co_send(ctx.rng.random(), right, tag=2)
            rreq = yield from ctx.mpi.co_irecv(source=left, tag=1)
            noise = yield from ctx.mpi.co_recv(source=left, tag=2)
            base = yield from ctx.mpi.co_wait(rreq)
            yield from ctx.mpi.co_wait(req)
            state["acc"] += (yield from ctx.mpi.co_allreduce(base + noise, SUM))
            state["i"] += 1
            yield from ctx.co_potential_checkpoint()
        return round(state["acc"], 10)

    return app


BASE = dict(nprocs=4, seed=31, checkpoint_interval=0.0025, detector_timeout=0.03)


@pytest.fixture(scope="module")
def gold_mixed():
    return run_with_recovery(mixed_traffic_app(), RunConfig(**BASE))


class TestKillTimeSweep:
    @pytest.mark.parametrize("fraction", [0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9])
    def test_kill_anywhere_recovers_exactly(self, gold_mixed, fraction):
        virtual_end = gold_mixed.attempts[0].virtual_time
        kill_at = virtual_end * fraction
        victim = int(fraction * 100) % 4
        out = run_with_recovery(
            mixed_traffic_app(), RunConfig(**BASE),
            failures=FailureSchedule.single(kill_at, victim),
        )
        assert out.results == gold_mixed.results, (
            f"divergence for kill at {fraction:.0%} of run, victim {victim}"
        )

    def test_kill_initiator(self, gold_mixed):
        out = run_with_recovery(
            mixed_traffic_app(), RunConfig(**BASE),
            failures=FailureSchedule.single(0.01, 0),
        )
        assert out.results == gold_mixed.results

    def test_cascade_of_failures(self, gold_mixed):
        out = run_with_recovery(
            mixed_traffic_app(), RunConfig(**BASE),
            failures=FailureSchedule(
                [KillEvent(0.003, 1), KillEvent(0.006, 2),
                 KillEvent(0.009, 3), KillEvent(0.012, 0)]
            ),
        )
        assert out.results == gold_mixed.results


class TestConfigurationMatrix:
    @pytest.mark.parametrize("ordering", ["fifo", "per_tag_fifo", "random"])
    @pytest.mark.parametrize("codec", ["packed", "full"])
    def test_ordering_codec_matrix(self, ordering, codec):
        cfg = RunConfig(ordering=ordering, codec=codec, **BASE)
        gold = run_with_recovery(mixed_traffic_app(100), cfg)
        out = run_with_recovery(
            mixed_traffic_app(100), cfg,
            failures=FailureSchedule.single(0.006, 2),
        )
        assert out.results == gold.results

    @pytest.mark.parametrize("nprocs", [2, 3, 5])
    def test_process_counts(self, nprocs):
        base = dict(BASE)
        base["nprocs"] = nprocs
        cfg = RunConfig(**base)
        gold = run_with_recovery(mixed_traffic_app(100), cfg)
        out = run_with_recovery(
            mixed_traffic_app(100), cfg,
            failures=FailureSchedule.single(0.005, nprocs - 1),
        )
        assert out.results == gold.results


class TestRealApplicationsUnderSweep:
    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
    def test_laplace_sweep(self, fraction):
        params = laplace.LaplaceParams(n=32, iterations=80)
        cfg = RunConfig(**BASE)
        gold = run_with_recovery(laplace.build(params), cfg)
        kill_at = gold.attempts[0].virtual_time * fraction
        out = run_with_recovery(
            laplace.build(params), cfg,
            failures=FailureSchedule.single(kill_at, 2),
        )
        assert out.results == gold.results

    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_neurosys_sweep(self, fraction):
        params = neurosys.NeurosysParams(grid=4, iterations=40)
        cfg = RunConfig(**BASE)
        gold = run_with_recovery(neurosys.build(params), cfg)
        kill_at = gold.attempts[0].virtual_time * fraction
        out = run_with_recovery(
            neurosys.build(params), cfg,
            failures=FailureSchedule.single(kill_at, 1),
        )
        assert out.results == gold.results


class TestSeededFuzz:
    @pytest.mark.parametrize("master_seed", range(6))
    def test_random_failure_random_interleaving(self, master_seed):
        """Randomised single-failure runs under the random transport: the
        reproducible fuzzing loop that shook out interleaving bugs."""
        base = dict(BASE)
        base["seed"] = 100 + master_seed
        base["ordering"] = "random"
        cfg = RunConfig(**base)
        gold = run_with_recovery(mixed_traffic_app(80), cfg)
        sched = FailureSchedule.random_single(
            master_seed, 4, (0.001, max(0.002, gold.attempts[0].virtual_time * 0.9))
        )
        out = run_with_recovery(mixed_traffic_app(80), cfg, failures=sched)
        assert out.results == gold.results


class TestRestoreConsumesWhatItIsHanded:
    def test_two_restores_from_one_epoch_copy_nothing(self, gold_mixed, monkeypatch):
        """A second kill inside attempt 1's replay window makes attempt 2
        restore from the same committed epoch.  ``restore_from`` keeps the
        freshly unpickled objects instead of deep-copying them: no
        ``copy.deepcopy`` runs between an attempt's first ``read_state`` and
        the first application slice (every rank is past its restore
        assignments by then — the suppression exchange needs all of them),
        and the answer is still the failure-free one, V0's included."""
        real_deepcopy = copy.deepcopy
        marks = []  # ("read" | "app", deepcopy calls so far)
        calls = 0

        def counting_deepcopy(obj, memo=None):
            nonlocal calls
            calls += 1
            return real_deepcopy(obj, memo)

        class MarkingStorage(Storage):
            def read_state(self, rank, epoch):
                marks.append(("read", calls))
                return super().read_state(rank, epoch)

        inner = mixed_traffic_app()

        def app(ctx):
            marks.append(("app", calls))
            return (yield from inner(ctx))

        config = RunConfig(**BASE)
        tracer = TraceRecorder(capacity=None)
        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        out = run_with_recovery(
            app, config,
            failures=FailureSchedule(
                [KillEvent(0.008, 1), KillEvent(0.0003, 0, attempt=1)]
            ),
            storage=MarkingStorage.from_config(config), tracer=tracer,
        )
        monkeypatch.undo()

        assert [a.started_from_epoch for a in out.attempts] == [None, 2, 2]
        replay = [
            (e.name, e.attempt) for e in tracer.events
            if e.category == "proto" and e.name in ("restore", "replay_end")
        ]
        assert replay.count(("restore", 1)) == 4
        assert replay.count(("replay_end", 1)) < 4, "kill must land mid-replay"
        # One window per restoring attempt: its first read to the next app entry.
        windows = [
            (at_read, next(n for kind, n in marks[i:] if kind == "app"))
            for i, (kind, at_read) in enumerate(marks)
            if kind == "read" and marks[i - 1][0] == "app"
        ]
        assert len(windows) == 2
        assert all(at_app == at_read for at_read, at_app in windows)
        assert calls > 0  # the counter is live: checkpoints still snapshot
        v0 = run_with_recovery(
            mixed_traffic_app(), RunConfig(variant=Variant.UNMODIFIED, **BASE)
        )
        assert out.results == gold_mixed.results == v0.results
