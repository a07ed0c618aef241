"""Session facade and sweep semantics (identity with the serial path)."""

import warnings

import pytest

import repro
from repro import RunConfig, Session, Variant
from repro.api.registry import AppSpec, get_app, list_apps
from repro.api.session import ALL_VARIANTS, default_storage_factory
from repro.errors import ConfigError
from repro.runtime.driver import run_variant_suite
from repro.simmpi import SUM, FailureSchedule
from repro.statesave.storage import Storage

CFG = dict(nprocs=3, seed=4, checkpoint_interval=0.002, detector_timeout=0.04)


@repro.app(name="ring-acc", default_params=20)
def ring_app(ctx):
    """Ring exchange + allreduce accumulator (test workload)."""
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
    n = ctx.params if ctx.params is not None else 20
    while state["i"] < n:
        right = (ctx.rank + 1) % ctx.size
        yield from ctx.mpi.co_send(float(state["i"]), right, tag=1)
        incoming = yield from ctx.mpi.co_recv(source=(ctx.rank - 1) % ctx.size, tag=1)
        state["acc"] += (yield from ctx.mpi.co_allreduce(incoming, SUM))
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    return state["acc"]


@repro.app(name="param-driven", default_params=8)
def param_driven_app(ctx):
    """Iteration count from ctx.params; accepts a callable (for the
    unpicklable-param fallback tests)."""
    n = ctx.params() if callable(ctx.params) else ctx.params
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
    while state["i"] < n:
        state["acc"] += (yield from ctx.mpi.co_allreduce(state["i"], SUM))
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    return state["acc"]


def counting_storage_factory():
    storage = Storage(None)
    counting_storage_factory.created.append(storage)
    return storage


counting_storage_factory.created = []


class TestRegistry:
    def test_decorator_registers(self):
        spec = get_app("ring-acc")
        assert spec.name == "ring-acc"
        assert spec.module == __name__
        assert spec.default_params == 20

    def test_catalogue_autoloads_paper_apps(self):
        apps = list_apps()
        assert {"dense_cg", "laplace", "neurosys"} <= set(apps)

    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError, match="unknown app"):
            get_app("no-such-app")

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            repro.register(
                AppSpec(name="dense_cg", factory=lambda p: None, module="elsewhere")
            )


class TestSessionRun:
    def test_run_by_name_matches_run_by_callable(self):
        session = Session()
        cfg = RunConfig(**CFG)
        by_name = session.run("ring-acc", cfg, params=20)
        by_fn = session.run(ring_app, cfg)  # decorated fn resolves to its spec
        assert by_name.results == by_fn.results
        assert by_name.checkpoints_committed >= 1

    def test_session_storage_factory_used(self):
        counting_storage_factory.created.clear()
        session = Session(storage_factory=counting_storage_factory)
        out = session.run("ring-acc", RunConfig(**CFG))
        assert len(counting_storage_factory.created) == 1
        assert counting_storage_factory.created[0].commits == out.checkpoints_committed

    def test_explicit_storage_wins(self):
        storage = Storage(None)
        Session().run("ring-acc", RunConfig(**CFG), storage=storage)
        assert storage.commits >= 1

    def test_failures_trigger_recovery(self):
        session = Session()
        cfg = RunConfig(**CFG)
        gold = session.run("ring-acc", cfg)
        out = session.run(
            "ring-acc", cfg, failures=FailureSchedule.single(0.004, 1)
        )
        assert len(out.attempts) == 2
        assert out.results == gold.results


class TestSweep:
    def test_sweep_matches_serial_variant_suite(self):
        """The acceptance check: four Figure-8 variants through the parallel
        sweep give per-rank results identical to run_variant_suite."""
        cfg = RunConfig(**CFG)
        serial = run_variant_suite(ring_app, cfg)
        swept = Session().sweep("ring-acc", cfg, params=[20]).by_variant()
        assert set(swept) == set(serial)
        for variant, outcome in serial.items():
            assert swept[variant].results == outcome.results, variant
            assert (
                swept[variant].checkpoints_committed
                == outcome.checkpoints_committed
            )

    def test_parallel_and_serial_sweeps_identical(self):
        cfg = RunConfig(**CFG)
        session = Session()
        par = session.sweep("ring-acc", cfg, seeds=(1, 2), parallel=True)
        ser = session.sweep("ring-acc", cfg, seeds=(1, 2), parallel=False)
        assert len(par) == len(ser) == 8
        for a, b in zip(par, ser):
            assert a.cell == b.cell
            assert a.outcome.results == b.outcome.results

    def test_closure_apps_fall_back_to_serial(self):
        """Unpicklable apps (closures) still sweep — in-process."""
        bound = 10

        def closure_app(ctx):
            state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0})
            while state["i"] < bound:
                state["acc"] += (yield from ctx.mpi.co_allreduce(state["i"], SUM))
                state["i"] += 1
                yield from ctx.co_potential_checkpoint()
            return state["acc"]

        result = Session().sweep(closure_app, RunConfig(**CFG))
        assert len(result) == len(ALL_VARIANTS)
        assert len({tuple(r.outcome.results) for r in result}) == 1

    def test_axes_and_table(self):
        cfg = RunConfig(**CFG)
        result = Session().sweep(
            "ring-acc", cfg,
            variants=(Variant.UNMODIFIED, Variant.FULL),
            seeds=(7, 8),
            nprocs=(2, 3),
            grid={"codec": ("full", "packed")},
        )
        assert len(result) == 2 * 2 * 2 * 2
        table = result.table()
        assert {row["codec"] for row in table} == {"full", "packed"}
        assert {row["nprocs"] for row in table} == {2, 3}
        one = result.outcome(
            variant=Variant.FULL, seed=7, nprocs=3, codec="packed"
        )
        assert one.checkpoints_committed >= 1
        assert len(result.select(variant=Variant.FULL)) == 8

    def test_grid_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="grid names unknown"):
            Session().sweep("ring-acc", RunConfig(**CFG), grid={"nope": (1,)})

    def test_grid_rejects_dedicated_axis_fields(self):
        with pytest.raises(ConfigError, match="dedicated axes"):
            Session().sweep("ring-acc", RunConfig(**CFG), grid={"seed": (1, 2)})

    def test_sweep_honours_storage_path(self, tmp_path):
        """A config that names a storage_path persists each cell to its own
        subdirectory of it (Session.run and Session.sweep must agree that
        storage_path means disk)."""
        import os

        cfg = RunConfig(storage_path=str(tmp_path / "ckpt"), **CFG)
        result = Session().sweep(
            "ring-acc", cfg, variants=(Variant.FULL, Variant.NO_APP_STATE)
        )
        assert all(r.outcome.checkpoints_committed >= 1 for r in result)
        cell_dirs = sorted(os.listdir(tmp_path / "ckpt"))
        assert len(cell_dirs) == 2
        for d in cell_dirs:
            assert os.path.exists(tmp_path / "ckpt" / d / "refs" / "COMMIT")

    def test_ckpt_knobs_honoured_without_storage_path(self):
        """ckpt_* knobs must reach the default in-memory storage too —
        the compressed run writes fewer bytes, the results are identical."""
        flat = Session().run(
            "ring-acc", RunConfig(ckpt_incremental=False, **CFG), params=60
        )
        packed = Session().run(
            "ring-acc", RunConfig(ckpt_codec="zlib", **CFG), params=60
        )
        assert packed.results == flat.results
        assert packed.checkpoints_committed == flat.checkpoints_committed >= 1
        assert packed.storage_bytes_written < flat.storage_bytes_written

    def test_explicit_factory_still_wins(self):
        counting_storage_factory.created.clear()
        session = Session(storage_factory=counting_storage_factory)
        session.run("ring-acc", RunConfig(**CFG))
        assert len(counting_storage_factory.created) == 1

    def test_storage_path_beats_session_factory_in_sweep(self, tmp_path):
        """run() and sweep() agree: a config naming a storage_path persists
        even when the session carries a default factory."""
        counting_storage_factory.created.clear()
        session = Session(storage_factory=counting_storage_factory)
        cfg = RunConfig(storage_path=str(tmp_path / "ckpt"), **CFG)
        session.sweep("ring-acc", cfg, variants=(Variant.FULL,))
        assert counting_storage_factory.created == []
        assert (tmp_path / "ckpt").exists()

    def test_by_variant_requires_unique_variants(self):
        result = Session().sweep(
            "ring-acc", RunConfig(**CFG),
            variants=(Variant.FULL,), seeds=(1, 2),
        )
        with pytest.raises(ConfigError, match="by_variant"):
            result.by_variant()

    def test_sweep_storage_factory_injected(self):
        counting_storage_factory.created.clear()
        result = Session().sweep(
            "ring-acc", RunConfig(**CFG),
            variants=(Variant.FULL, Variant.NO_APP_STATE),
            storage_factory=counting_storage_factory,
            parallel=False,  # keep the counting factory in-process
        )
        assert len(counting_storage_factory.created) == 2
        assert all(r.outcome.checkpoints_committed >= 1 for r in result)

    def test_failures_schedule_applied_per_cell(self):
        cfg = RunConfig(**CFG)
        result = Session().sweep(
            "ring-acc", cfg,
            variants=(Variant.FULL,), seeds=(4, 5),
            failures=FailureSchedule.single(0.004, 1),
        )
        assert all(len(r.outcome.attempts) == 2 for r in result)
        gold = Session().run("ring-acc", cfg)
        assert result.outcome(seed=4).results == gold.results


class TestSweepFallback:
    def test_unpicklable_param_falls_back_to_serial(self):
        """Regression: the picklability probe skipped cell params, so a
        closure param reached the pool and killed it (BrokenProcessPool /
        AttributeError) instead of falling back to in-process serial."""
        bound = 9

        def closure_param():
            return bound

        par = Session().sweep(
            "param-driven", RunConfig(**CFG),
            variants=(Variant.FULL,), params=[closure_param, 5],
            parallel=True,
        )
        ser = Session().sweep(
            "param-driven", RunConfig(**CFG),
            variants=(Variant.FULL,), params=[closure_param, 5],
            parallel=False,
        )
        assert len(par) == 2
        for a, b in zip(par, ser):
            assert a.outcome.results == b.outcome.results

    def test_unpicklable_grid_value_falls_back(self):
        """Grid values ride RunConfig replacements; an unpicklable one
        (an instance of a locally-defined class) must also divert the
        sweep to the serial path, not crash it."""
        from repro.simmpi.clock import CostModel

        class LocalCost(CostModel):
            """Local subclass: instances cannot be pickled."""

        result = Session().sweep(
            "ring-acc", RunConfig(**CFG),
            variants=(Variant.UNMODIFIED, Variant.FULL),
            grid={"cost_model": (LocalCost(),)},
            parallel=True,
        )
        assert len(result) == 2
        assert all(r.outcome.results for r in result)

    def test_session_map_parallel_matches_serial(self):
        session = Session()
        payloads = list(range(8))
        par = session.map(_square_for_map, payloads, parallel=True)
        ser = session.map(_square_for_map, payloads, parallel=False)
        assert par == ser == [p * p for p in payloads]

    def test_session_map_closure_falls_back(self):
        k = 3
        out = Session().map(lambda p: p + k, [1, 2, 3], parallel=True)
        assert out == [4, 5, 6]


def _square_for_map(p):
    return p * p


class TestVariantStrings:
    @pytest.fixture(scope="class")
    def result(self):
        return Session().sweep(
            "ring-acc", RunConfig(**CFG),
            variants=(Variant.FULL, Variant.NO_APP_STATE), seeds=(1, 2),
        )

    def test_select_accepts_value_spelling(self, result):
        assert result.select(variant="full") == result.select(
            variant=Variant.FULL
        )
        assert len(result.select(variant="no-app-state")) == 2

    def test_select_accepts_member_name_spelling(self, result):
        assert result.select(variant="NO_APP_STATE") == result.select(
            variant=Variant.NO_APP_STATE
        )

    def test_outcome_accepts_string(self, result):
        by_string = result.outcome(variant="full", seed=1)
        by_enum = result.outcome(variant=Variant.FULL, seed=1)
        assert by_string is by_enum

    def test_unknown_variant_string_rejected(self, result):
        with pytest.raises(ConfigError, match="unknown variant"):
            result.select(variant="fullest")

    def test_sweep_variants_axis_accepts_strings(self):
        swept = Session().sweep(
            "ring-acc", RunConfig(**CFG), variants=("piggyback", "full")
        )
        assert [r.cell.variant for r in swept] == [
            Variant.PIGGYBACK, Variant.FULL,
        ]


class TestRunVariantSuiteSatellites:
    def test_storage_factory_injected(self):
        counting_storage_factory.created.clear()
        run_variant_suite(
            ring_app, RunConfig(**CFG),
            variants=(Variant.FULL,),
            storage_factory=counting_storage_factory,
        )
        assert len(counting_storage_factory.created) == 1
        assert counting_storage_factory.created[0].commits >= 1

    def test_replace_import_is_module_scope(self):
        import inspect

        from repro.runtime import driver

        src = inspect.getsource(driver.run_variant_suite)
        assert "from dataclasses import replace" not in src


class TestTopLevelExports:
    def test_stable_reexports(self):
        assert repro.Session is Session
        assert repro.RunConfig is RunConfig
        assert repro.Variant is Variant
        assert callable(repro.app)
        assert default_storage_factory().path is None
        assert not hasattr(repro, "run_with_recovery")
        assert not hasattr(repro, "run_variant_suite")

    def test_session_run_is_warning_free(self):
        cfg = RunConfig(nprocs=2, checkpoint_interval=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Session().run(param_driven_app, cfg, params=3)
        assert out.results == [6, 6]
