"""C3AppContext behaviour: state registration, RNG checkpointing, nondet."""

import pytest

from repro.errors import ConfigError
from repro.runtime import RunConfig, run_with_recovery
from repro.runtime.context import C3AppContext
from repro.simmpi import SUM, FailureSchedule


CFG = dict(nprocs=2, seed=9, checkpoint_interval=0.002, detector_timeout=0.04)


class _StubLayer:
    """Just enough CommLike surface for constructing a context directly."""

    state_provider = None


class _StubRankCtx:
    rank = 0
    size = 1

    def __init__(self):
        self.rng = object()


class TestRestoredBlob:
    """``checkpointable_state`` unpacks the ``{"user": ..., "rng": ...}``
    blob a restart hands it."""

    def make_ctx(self, blob):
        return C3AppContext(
            _StubRankCtx(), _StubLayer(), restored_app_state=blob, restored=True
        )

    def test_modern_wrapper_unpacks_user_and_rng(self):
        rng = object()
        blob = {"user": {"x": 1}, "rng": rng}
        ctx = self.make_ctx(blob)
        state = ctx.checkpointable_state(dict)
        assert state == {"x": 1}
        assert ctx._rank_ctx.rng is rng

    def test_restored_none_falls_back_to_init(self):
        ctx = C3AppContext(
            _StubRankCtx(), _StubLayer(), restored_app_state=None, restored=True
        )
        assert ctx.checkpointable_state(lambda: "fresh") == "fresh"


class TestStateRegistration:
    def test_double_registration_rejected(self):
        def app(ctx):
            yield from ctx.mpi.co_barrier()
            ctx.checkpointable_state(dict)
            ctx.checkpointable_state(dict)

        with pytest.raises(ConfigError):
            run_with_recovery(app, RunConfig(**CFG))

    def test_init_called_once_on_fresh_start(self):
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"calls": 0, "i": 0})
            state["calls"] += 1
            while state["i"] < 30:
                yield from ctx.mpi.co_allreduce(1, SUM)
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["calls"]

        out = run_with_recovery(app, RunConfig(**CFG))
        assert out.results == [1, 1]

    def test_restored_state_returned_after_failure(self):
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"fresh": True, "i": 0})
            fresh_at_entry = state["fresh"]
            state["fresh"] = False
            while state["i"] < 60:
                yield from ctx.mpi.co_allreduce(1, SUM)
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return fresh_at_entry

        out = run_with_recovery(
            app, RunConfig(**CFG), failures=FailureSchedule.single(0.004, 1)
        )
        # The second attempt saw the restored (already-mutated) state.
        assert out.results == [False, False]


class TestRngCheckpointing:
    def test_rng_not_rewound_on_restart(self):
        """Draws already consumed before the checkpoint must not repeat."""
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "draws": []})
            while state["i"] < 60:
                state["draws"].append(round(ctx.rng.random(), 12))
                yield from ctx.mpi.co_allreduce(1, SUM)
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["draws"]

        gold = run_with_recovery(app, RunConfig(**CFG))
        out = run_with_recovery(
            app, RunConfig(**CFG), failures=FailureSchedule.single(0.004, 0)
        )
        for rank in range(2):
            draws = out.results[rank]
            assert len(set(draws)) == len(draws), "stream rewound: repeated draws"
            assert draws == gold.results[rank]


class TestNondetHelpers:
    def test_ctx_random_goes_through_nondet(self):
        def app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0})
            values = []
            while state["i"] < 20:
                values.append((yield from ctx.co_random()))
                yield from ctx.mpi.co_allreduce(1, SUM)
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return all(0.0 <= v < 1.0 for v in values)

        out = run_with_recovery(app, RunConfig(**CFG))
        assert out.results == [True, True]

    def test_wtime_monotone_through_context(self):
        def app(ctx):
            ctx.checkpointable_state(lambda: {})
            yield from ctx.mpi.co_barrier()
            t0 = ctx.wtime()
            ctx.compute(seconds=0.001)
            return ctx.wtime() - t0

        out = run_with_recovery(app, RunConfig(**CFG))
        assert all(dt >= 0.0009 for dt in out.results)
