"""Session facade and sweep semantics (identity with the serial path)."""

import os
import warnings
from dataclasses import replace

import pytest

import repro
from repro import RunConfig, Session, Variant
from repro.api.registry import AppSpec, get_app, list_apps
from repro.api.session import ALL_VARIANTS
from repro.apps.laplace import LaplaceParams
from repro.ckpt import CheckpointStore, MemoryBackend, RetentionPolicy
from repro.errors import ConfigError
from repro.farm import Farm
from repro.protocol import C3Config
from repro.runtime.driver import run_with_recovery
from repro.simmpi import SUM, FailureSchedule, KillEvent
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

    def test_engine_store_assigned_to_storage_reaches_the_run(self):
        """Engine options are set on a directly built CheckpointStore.  Every
        store deflates the in-band stream, which is all of this small state,
        so a zlib chunk codec finds nothing left and only adds its own
        framing: an honoured codec shows as *more* bytes, same results."""
        outcomes = {}
        for name, engine in {
            "full": CheckpointStore(MemoryBackend(), incremental=False),
            "zlib": CheckpointStore(MemoryBackend(), codec="zlib"),
        }.items():
            storage = Storage(None)
            storage.store = engine
            outcomes[name] = Session().run(
                "ring-acc", RunConfig(**CFG), params=60, storage=storage
            )
            assert engine.bytes_written == outcomes[name].storage_bytes_written > 0
        flat, packed = outcomes["full"], outcomes["zlib"]
        assert packed.results == flat.results
        assert packed.checkpoints_committed == flat.checkpoints_committed >= 1
        assert packed.storage_bytes_written > flat.storage_bytes_written

    def test_failures_trigger_recovery(self):
        session = Session()
        cfg = RunConfig(**CFG)
        gold = session.run("ring-acc", cfg)
        out = session.run(
            "ring-acc", cfg, failures=FailureSchedule.single(0.004, 1)
        )
        assert len(out.attempts) == 2
        assert out.results == gold.results


    def test_one_schedule_fires_in_every_run_it_is_given(self):
        """Regression: a run consumed the caller's schedule, so the second
        run of the same schedule, and a sweep built from it, ran
        failure-free."""
        session = Session()
        cfg = RunConfig(nprocs=4, seed=17, variant=Variant.FULL)
        params = LaplaceParams(n=64, iterations=120)
        sched = FailureSchedule.single(0.008, 1)
        first = session.run("laplace", cfg, params=params, failures=sched)
        second = session.run("laplace", cfg, params=params, failures=sched)
        assert first.restarts == second.restarts == 1
        assert first.facts() == second.facts()
        assert sched.remaining() == [KillEvent(0.008, 1)]
        assert sched.consumed_events() == ()
        swept = session.sweep(
            "laplace", cfg, variants=(Variant.FULL,), params=(params,),
            failures=sched, parallel=False,
        )
        assert swept.rows[0].outcome.facts() == first.facts()


class TestSweep:
    def test_sweep_matches_serial_driver_runs(self):
        """The acceptance check: four Figure-8 variants through the parallel
        sweep give per-rank results identical to the free-function driver
        run once per variant."""
        cfg = RunConfig(**CFG)
        serial = {
            v: run_with_recovery(ring_app, replace(cfg, variant=v)) for v in ALL_VARIANTS
        }
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
            grid={"ordering": ("fifo", "random")},
        )
        assert len(result) == 2 * 2 * 2 * 2
        table = result.table()
        assert {row["ordering"] for row in table} == {"fifo", "random"}
        assert {row["nprocs"] for row in table} == {2, 3}
        one = result.outcome(
            variant=Variant.FULL, seed=7, nprocs=3, ordering="random"
        )
        assert one.checkpoints_committed >= 1
        assert len(result.select(variant=Variant.FULL)) == 8

    def test_grid_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="grid names unknown"):
            Session().sweep("ring-acc", RunConfig(**CFG), grid={"nope": (1,)})

    def test_grid_rejects_dedicated_axis_fields(self):
        with pytest.raises(ConfigError, match="dedicated axes"):
            Session().sweep("ring-acc", RunConfig(**CFG), grid={"seed": (1, 2)})

    def test_by_variant_requires_unique_variants(self):
        result = Session().sweep(
            "ring-acc", RunConfig(**CFG),
            variants=(Variant.FULL,), seeds=(1, 2),
        )
        with pytest.raises(ConfigError, match="by_variant"):
            result.by_variant()

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


class TestStorageRule:
    """A run's storage has one rule: the ``storage=`` argument wins;
    otherwise it is ``Storage.from_config(config)``.  A sweep cell
    persists to its own slug directory exactly when ``storage_path`` is
    set, and the farm caches it exactly when it is not."""

    @staticmethod
    def storage_argument_wins(tmp_path, built):
        storage = Storage(None)
        cfg = RunConfig(storage_path=str(tmp_path / "ckpt"), **CFG)
        out = Session().run("ring-acc", cfg, storage=storage)
        assert storage.commits == out.checkpoints_committed >= 1
        assert built == [] and not (tmp_path / "ckpt").exists()

    @staticmethod
    def from_config_in_memory(tmp_path, built):
        out = Session().run("ring-acc", RunConfig(ckpt_keep_last=2, **CFG), params=60)
        (storage,) = built
        assert storage.path is None and storage.store.retention.keep_last == 2
        assert out.checkpoints_committed > 2
        assert len(storage.commit_history()) == 2

    @staticmethod
    def from_config_on_disk(tmp_path, built):
        root = str(tmp_path / "ckpt")
        Session().run(
            "ring-acc", RunConfig(storage_path=root, ckpt_keep_last=2, **CFG), params=60
        )
        (storage,) = built
        assert storage.path == root
        assert len(Storage(root).commit_history()) == 2

    @staticmethod
    def path_cells_persist_per_slug_uncached(tmp_path, built):
        root = tmp_path / "ckpt"
        cfg = RunConfig(storage_path=str(root), **CFG)
        farm = Farm(None)
        for _ in range(2):
            result = Session().sweep(
                "ring-acc", cfg, variants=(Variant.FULL, Variant.NO_APP_STATE),
                parallel=False, farm=farm,
            )
            assert all(r.outcome.checkpoints_committed >= 1 for r in result)
            assert (farm.last_stats.uncached, farm.last_stats.hits) == (2, 0)
        slugs = sorted(os.listdir(root))
        assert len(slugs) == 2
        assert {s.path for s in built} == {str(root / slug) for slug in slugs}
        for slug in slugs:
            assert (root / slug / "refs" / "COMMIT").exists()

    @staticmethod
    def memory_cells_cached(tmp_path, built):
        farm = Farm(None)
        cfg = RunConfig(**CFG)
        cold = Session().sweep("ring-acc", cfg, seeds=(1, 2), parallel=False, farm=farm)
        assert (farm.last_stats.executed, farm.last_stats.uncached) == (len(cold), 0)
        warm = Session().sweep("ring-acc", cfg, seeds=(1, 2), parallel=False, farm=farm)
        assert (farm.last_stats.hits, farm.last_stats.executed) == (len(warm), 0)
        assert len(built) == len(cold)  # a hit builds no storage
        assert [r.outcome.results for r in warm] == [r.outcome.results for r in cold]

    @pytest.mark.parametrize(
        "branch",
        [
            "storage_argument_wins",
            "from_config_in_memory",
            "from_config_on_disk",
            "path_cells_persist_per_slug_uncached",
            "memory_cells_cached",
        ],
    )
    def test_one_storage_rule(self, branch, tmp_path, monkeypatch):
        built = []
        from_config = Storage.from_config.__func__

        def recording(cls, config):
            built.append(from_config(cls, config))
            return built[-1]

        monkeypatch.setattr(Storage, "from_config", classmethod(recording))
        getattr(self, branch)(tmp_path, built)


class TestOneWayToConfigure:
    """Each second way to configure a run is gone: its keyword is refused
    instead of silently accepted, and its entry point no longer exists."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: RunConfig(ckpt_codec="zlib"),
            lambda: RunConfig(codec="packed"),
            lambda: C3Config(codec="packed"),
            lambda: RunConfig(ckpt_incremental=False),
            lambda: Session(storage_factory=Storage),
            lambda: Session(cost_model=None),
            lambda: Session().run("ring-acc", RunConfig(**CFG), check="error"),
            lambda: Session().sweep("ring-acc", RunConfig(**CFG), storage_factory=Storage),
            lambda: Session().sweep("ring-acc", RunConfig(**CFG), check="error"),
            lambda: Storage(None, codec="zlib"),
            lambda: Storage(None, incremental=False),
            lambda: Storage(None, chunk_size=64),
            lambda: RetentionPolicy(keep_every=2),
        ],
        ids=[
            "RunConfig.ckpt_codec",
            "RunConfig.codec",
            "C3Config.codec",
            "RunConfig.ckpt_incremental",
            "Session.storage_factory",
            "Session.cost_model",
            "Session.run.check",
            "Session.sweep.storage_factory",
            "Session.sweep.check",
            "Storage.codec",
            "Storage.incremental",
            "Storage.chunk_size",
            "RetentionPolicy.keep_every",
        ],
    )
    def test_removed_knob_is_refused(self, call):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()

    def test_removed_entry_points_are_gone(self):
        from repro import ckpt
        from repro.api import session
        from repro.ckpt import backends, codecs
        from repro.runtime import driver

        gone = [
            (session, "default_storage_factory"),
            (session.Session, "_apply_defaults"),
            (driver, "run_variant_suite"),
            (backends, "register_backend"),
            (backends, "make_backend"),
            (backends, "list_backends"),
            (codecs, "register_chunk_codec"),
            (codecs, "list_chunk_codecs"),
            (Storage, "state_manifest"),
            (Storage(None), "writes"),
        ]
        gone += [(ckpt, name) for _, name in gone[3:8]]
        assert [(owner, name) for owner, name in gone if hasattr(owner, name)] == []


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


class TestTopLevelExports:
    def test_stable_reexports(self):
        assert repro.Session is Session
        assert repro.RunConfig is RunConfig
        assert repro.Variant is Variant
        assert callable(repro.app)
        assert not hasattr(repro, "run_with_recovery")

    def test_session_run_is_warning_free(self):
        cfg = RunConfig(nprocs=2, checkpoint_interval=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Session().run(param_driven_app, cfg, params=3)
        assert out.results == [6, 6]
