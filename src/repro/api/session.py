"""``Session``: one object that owns an experiment's resources.

The free-function driver (:func:`repro.runtime.driver.run_with_recovery`)
asks every caller to hand-wire storage, failure schedules and variant
loops.  A :class:`Session` centralises those defaults and adds the sweep
machinery the Figure-8 protocol implies:

* ``session.run(app, config)`` — one application, one configuration;
  ``app`` may be a registered name, an :class:`~repro.api.registry.AppSpec`
  or any driver-ready callable.
* ``session.sweep(app, base_config, variants=…, seeds=…, nprocs=…,
  grid=…)`` — the cross product of the requested axes, one fresh storage
  per cell, executed concurrently via ``ProcessPoolExecutor`` when the
  cells can be shipped to workers (registered apps can always be; closures
  fall back to in-process serial execution).  Every cell is an independent
  deterministic simulation, so parallel results are bit-identical to
  serial ones — ``parallel=False`` exists only for debugging.

The result is a :class:`SweepResult`: tidy per-cell rows, each carrying
its :class:`~repro.runtime.driver.RunOutcome`.
"""

from __future__ import annotations

import itertools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.api.registry import AppMain, AppSpec, _FunctionApp, get_app, rehydrate
from repro.errors import ConfigError
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import RunOutcome, run_with_recovery
from repro.simmpi.clock import CostModel
from repro.simmpi.failures import FailureSchedule
from repro.statesave.storage import Storage

if TYPE_CHECKING:  # pragma: no cover
    from repro.farm.engine import Farm

#: The four build variants of Section 6.2, in Figure-8 order.
ALL_VARIANTS = (
    Variant.UNMODIFIED,
    Variant.PIGGYBACK,
    Variant.NO_APP_STATE,
    Variant.FULL,
)

AppLike = Union[str, AppSpec, AppMain]
FailuresLike = Union[None, FailureSchedule, Callable[["SweepCell"], Optional[FailureSchedule]]]

_CONFIG_FIELDS = frozenset(f.name for f in fields(RunConfig))

_T = TypeVar("_T")

#: Shared enum-or-string coercion (also used by ``repro.chaos`` scenarios).
_coerce_variant = Variant.coerce


def default_storage_factory() -> Storage:
    """Fresh in-memory stable storage (one per run/sweep cell)."""
    return Storage(None)


# ===================================================================== #
# Sweep cells and results.
# ===================================================================== #


@dataclass(frozen=True)
class SweepCell:
    """Coordinates of one run within a sweep (one tidy-table key)."""

    app: str
    variant: Variant
    seed: int
    nprocs: int
    params: Any = None
    #: Extra ``RunConfig`` field overrides from the ``grid`` axis.
    overrides: tuple[tuple[str, Any], ...] = ()


@dataclass
class RunRow:
    """One tidy row of a sweep table: cell coordinates plus the outcome."""

    cell: SweepCell
    outcome: RunOutcome

    def as_dict(self) -> dict[str, Any]:
        """One flat table row, derived from the unified metrics snapshot.

        Column names and types are stable (they predate the registry);
        only the source changed — every numeric column now reads from
        ``outcome.metrics_snapshot()`` so tables, chaos reports and bench
        records cannot drift apart.  ``wall_seconds`` is read directly:
        the snapshot deliberately excludes run-level wall clock.
        """
        from repro.trace.metrics import snapshot_get

        row: dict[str, Any] = {
            "app": self.cell.app,
            "variant": self.cell.variant.value,
            "seed": self.cell.seed,
            "nprocs": self.cell.nprocs,
            "params": self.cell.params,
        }
        row.update(self.cell.overrides)
        snap = self.outcome.metrics_snapshot()

        def counter(name: str) -> float:
            return snapshot_get(snap, "counters", name, 0.0)

        stage_calls: dict[str, int] = {}
        for name, value in snap["counters"].items():
            if name.startswith("proto.stage_calls."):
                stage_calls[name[len("proto.stage_calls."):]] = int(value)
        row.update(
            results=self.outcome.results,
            attempts=int(snapshot_get(snap, "gauges", "run.attempts", 0.0)),
            restarts=int(snapshot_get(snap, "gauges", "run.restarts", 0.0)),
            virtual_time=snapshot_get(snap, "gauges", "run.virtual_time", 0.0),
            wall_seconds=self.outcome.total_wall_seconds,
            checkpoints_committed=int(counter("ckpt.commits")),
            storage_bytes=int(counter("store.bytes_written")),
            network_messages=int(counter("net.messages")),
            network_bytes=int(counter("net.bytes")),
            stage_calls=stage_calls,
        )
        return row


class SweepResult:
    """Ordered collection of sweep rows (cell order is the axis product)."""

    def __init__(self, rows: list[RunRow]) -> None:
        self.rows = rows
        #: Cache/queue accounting when the sweep ran through a farm
        #: (:class:`repro.farm.FarmStats`); None for direct execution.
        self.farm_stats = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def table(self) -> list[dict[str, Any]]:
        """The tidy table: one flat dict per cell."""
        return [row.as_dict() for row in self.rows]

    def select(self, **coords: Any) -> list[RunRow]:
        """Rows whose cell matches every given coordinate.

        ``variant`` accepts the enum or its string spelling —
        ``select(variant=Variant.FULL)`` and ``select(variant="full")``
        are the same query."""
        if "variant" in coords:
            coords = dict(coords, variant=_coerce_variant(coords["variant"]))
        out = []
        for row in self.rows:
            cell_view = dict(row.cell.overrides)
            cell_view.update(
                app=row.cell.app,
                variant=row.cell.variant,
                seed=row.cell.seed,
                nprocs=row.cell.nprocs,
                params=row.cell.params,
            )
            if all(cell_view.get(k) == v for k, v in coords.items()):
                out.append(row)
        return out

    def outcome(self, **coords: Any) -> RunOutcome:
        """The unique outcome at the given coordinates (``variant`` may be
        an enum or its string spelling, as in :meth:`select`)."""
        rows = self.select(**coords)
        if len(rows) != 1:
            raise ConfigError(
                f"coordinates {coords!r} match {len(rows)} cells, expected 1"
            )
        return rows[0].outcome

    def by_variant(self) -> dict[Variant, RunOutcome]:
        """``{variant: outcome}`` — the ``run_variant_suite`` shape.

        Requires the variant axis to be the only one with multiple values.
        """
        out: dict[Variant, RunOutcome] = {}
        for row in self.rows:
            if row.cell.variant in out:
                raise ConfigError(
                    "by_variant() needs a sweep whose only multi-valued axis "
                    "is the variant"
                )
            out[row.cell.variant] = row.outcome
        return out


# ===================================================================== #
# Cell execution (module-level so payloads can cross process boundaries).
# ===================================================================== #


def _build_app(app_ref: tuple, params: Any) -> AppMain:
    kind = app_ref[0]
    if kind == "spec":
        _, module, name = app_ref
        return rehydrate(module, name).build(params)
    fn = app_ref[1]
    if params is None:
        return fn
    return _FunctionApp(fn, params)


def _cell_cacheable(payload: tuple) -> bool:
    """Farm-cache eligibility of one sweep cell.

    Only cells with per-run in-memory storage (the ``("config", None)``
    spec) are cached: cells persisting checkpoints to their own directory
    — or building storage through a user factory — have side effects a
    cache hit would silently skip."""
    return payload[4][0] == "config"


def _cell_label(payload: tuple) -> str:
    cell = payload[1]
    return (
        f"{cell.app}/{cell.variant.value} seed={cell.seed} np={cell.nprocs}"
        + (f" params={cell.params!r}" if cell.params is not None else "")
    )


def _execute_cell(payload: tuple) -> RunOutcome:
    """Run one sweep cell; works identically in-process and in a worker."""
    app_ref, cell, config, failure_spec, storage_spec = payload
    app_main = _build_app(app_ref, cell.params)
    kill_events, ckpt_crashes = failure_spec
    failures = (
        FailureSchedule(kill_events, checkpoint_crashes=ckpt_crashes)
        if kill_events or ckpt_crashes
        else None
    )
    kind, value = storage_spec
    if kind == "path":
        # The cell's own ckpt_* knobs apply at the per-cell directory.
        storage = Storage.from_config(replace(config, storage_path=value))
        # Every sweep cell starts from a fresh storage (the documented
        # contract).  The per-cell slug normally guarantees an empty
        # directory, but a retried cell — e.g. the serial fallback after a
        # worker-pool failure part-way through — must not resume from its
        # own first pass's checkpoints and skew the row's accounting.
        if storage.commit_history() or storage.store.streams():
            storage.wipe()
    elif kind == "config":
        storage = Storage.from_config(config)  # in-memory, knobs honoured
    else:
        storage = value()
    return run_with_recovery(app_main, config, failures=failures, storage=storage)


# ===================================================================== #
# The Session facade.
# ===================================================================== #


class Session:
    """Owns storage, cost-model and parallelism defaults for experiments.

    Parameters
    ----------
    storage_factory:
        Zero-argument callable producing a fresh :class:`Storage` per run.
        Defaults to in-memory storage.  For sweeps to run in parallel the
        factory must be picklable (a module-level function).
    cost_model:
        When given, applied to every config that still carries the default
        :class:`CostModel`.
    max_workers:
        Process-pool width for sweeps; defaults to ``os.cpu_count()``
        capped by the number of cells.
    """

    def __init__(
        self,
        storage_factory: Optional[Callable[[], Storage]] = None,
        cost_model: Optional[CostModel] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.storage_factory = storage_factory or default_storage_factory
        #: Whether the caller supplied a factory.  Without one, storages are
        #: built from each config's ckpt_* knobs (Storage.from_config), so
        #: codec/retention settings are honoured even in-memory.
        self._explicit_factory = storage_factory is not None
        self.cost_model = cost_model
        self.max_workers = max_workers

    # ------------------------------------------------------------------ #

    def _apply_defaults(self, config: RunConfig) -> RunConfig:
        if self.cost_model is not None and config.cost_model == CostModel():
            config = replace(config, cost_model=self.cost_model)
        return config

    def _app_ref(self, app: AppLike) -> tuple:
        """Normalise an app argument to a portable reference tuple."""
        if isinstance(app, str):
            spec = get_app(app)
            return ("spec", spec.module, spec.name)
        if isinstance(app, AppSpec):
            return ("spec", app.module, app.name)
        spec = getattr(app, "__app_spec__", None)
        if isinstance(spec, AppSpec):
            return ("spec", spec.module, spec.name)
        if callable(app) or hasattr(app, "co_call"):
            return ("callable", app)
        raise ConfigError(f"not a runnable application: {app!r}")

    @staticmethod
    def _app_name(app: AppLike) -> str:
        if isinstance(app, str):
            return app
        if isinstance(app, AppSpec):
            return app.name
        return getattr(app, "__name__", type(app).__name__)

    def _run_check(self, app: AppLike, level: str) -> None:
        """Static verification before a run (``check="warn"``/``"error"``).

        Registered apps are checked through their defining module; plain
        functions through their own source.  Callables whose source cannot
        be read (precompiled units were already checked at compile time)
        are skipped.
        """
        import inspect
        import sys

        from repro.check.driver import check_app, check_functions

        if level not in ("warn", "error"):
            raise ConfigError(
                f"check must be 'off', 'warn' or 'error', got {level!r}"
            )
        spec = app if isinstance(app, AppSpec) else getattr(app, "__app_spec__", None)
        if isinstance(app, str):
            result = check_app(app)
        elif isinstance(spec, AppSpec):
            result = check_app(spec.name)
        elif inspect.isfunction(app):
            try:
                inspect.getsource(app)
            except (OSError, TypeError):
                return  # REPL / exec-defined function: nothing to analyse
            result = check_functions([app], target=self._app_name(app))
        else:
            return
        if not result.ok and level == "error":
            from repro.errors import CheckError

            raise CheckError(result.render(), diagnostics=result.errors)
        if result.diagnostics and level == "warn":
            print(result.render(), file=sys.stderr)

    # ------------------------------------------------------------------ #

    def run(
        self,
        app: AppLike,
        config: RunConfig,
        *,
        params: Any = None,
        failures: Optional[FailureSchedule] = None,
        storage: Optional[Storage] = None,
        check: Optional[str] = None,
    ) -> RunOutcome:
        """Execute one application under one configuration.

        ``params`` reaches the application as ``ctx.params`` (for a spec,
        ``None`` means the spec's default parameters; for a bare callable,
        ``None`` leaves the callable untouched).  ``check`` overrides the
        config's ``check`` level: ``"warn"`` prints static-verifier
        findings before running, ``"error"`` refuses to run an app with
        error findings (:class:`~repro.errors.CheckError`).
        """
        config = self._apply_defaults(config)
        level = check if check is not None else config.check
        if level != "off":
            self._run_check(app, level)
        app_main = _build_app(self._app_ref(app), params)
        if storage is None:
            if config.storage_path is not None or not self._explicit_factory:
                storage = Storage.from_config(config)
            else:
                storage = self.storage_factory()
        return run_with_recovery(app_main, config, failures=failures, storage=storage)

    # ------------------------------------------------------------------ #

    def sweep(
        self,
        app: AppLike,
        base_config: Optional[RunConfig] = None,
        *,
        variants: Sequence[Variant] = ALL_VARIANTS,
        seeds: Optional[Iterable[int]] = None,
        nprocs: Optional[Iterable[int]] = None,
        params: Optional[Iterable[Any]] = None,
        grid: Optional[Mapping[str, Sequence[Any]]] = None,
        failures: FailuresLike = None,
        storage_factory: Optional[Callable[[], Storage]] = None,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        farm: Optional["Farm"] = None,
        check: Optional[str] = None,
    ) -> SweepResult:
        """Run the cross product of the requested axes.

        Cell order is the axis product in the order
        ``variants × seeds × nprocs × params × grid``; results always come
        back in that order regardless of execution backend, and each cell
        gets a fresh storage so checkpoints cannot leak between cells.
        When a cell's config names a ``storage_path`` (and no explicit
        ``storage_factory`` overrides it), the cell persists to a unique
        subdirectory of that path.

        ``farm`` routes execution through a :class:`repro.farm.Farm`:
        cells whose fingerprint is already cached are returned without
        running a simulator (bit-identical outcomes), the rest become
        durable, resumable jobs.  Cells that persist checkpoints
        externally (``storage_path`` or a factory) run uncached.  The
        returned :class:`SweepResult` carries ``farm_stats``.
        """
        base_config = base_config if base_config is not None else RunConfig(nprocs=4)
        base_config = self._apply_defaults(base_config)
        level = check if check is not None else base_config.check
        if level != "off":
            # Once up front — every cell runs the same application.
            self._run_check(app, level)
        app_ref = self._app_ref(app)
        app_name = self._app_name(app)
        variants = tuple(_coerce_variant(v) for v in variants)

        seed_axis = tuple(seeds) if seeds is not None else (base_config.seed,)
        nprocs_axis = tuple(nprocs) if nprocs is not None else (base_config.nprocs,)
        params_axis = tuple(params) if params is not None else (None,)
        grid = dict(grid or {})
        reserved = {"variant", "seed", "nprocs"} & set(grid)
        if reserved:
            raise ConfigError(
                f"grid names fields with dedicated axes: {sorted(reserved)}; "
                "use the variants=/seeds=/nprocs= arguments instead"
            )
        unknown = set(grid) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"grid names unknown RunConfig fields: {sorted(unknown)}")
        grid_axes = [tuple((name, v) for v in values) for name, values in grid.items()]

        payloads = []
        cells = []
        for index, (variant, seed, np_, p, *grid_choice) in enumerate(
            itertools.product(
                tuple(variants), seed_axis, nprocs_axis, params_axis, *grid_axes
            )
        ):
            overrides = tuple(grid_choice)
            cell = SweepCell(
                app=app_name, variant=variant, seed=seed, nprocs=np_,
                params=p, overrides=overrides,
            )
            cfg = replace(
                base_config, variant=variant, seed=seed, nprocs=np_,
                **dict(overrides),
            )
            # Precedence matches Session.run: a config naming a
            # storage_path persists (only a sweep-argument factory
            # overrides that); otherwise an explicit factory wins; the
            # default is a fresh per-cell in-memory store built from the
            # cell's ckpt_* knobs.
            if storage_factory is None and cfg.storage_path is not None:
                # Persist where the config asks to, but never share a
                # directory between cells (one COMMIT record per store).
                slug = f"cell{index:04d}-{variant.value}-seed{seed}-np{np_}"
                storage_spec = ("path", os.path.join(cfg.storage_path, slug))
            elif storage_factory is not None:
                storage_spec = ("factory", storage_factory)
            elif self._explicit_factory:
                storage_spec = ("factory", self.storage_factory)
            else:
                storage_spec = ("config", None)
            sched = failures(cell) if callable(failures) else failures
            if sched is not None:
                failure_spec = (
                    tuple(sched.remaining()),
                    sched.remaining_checkpoint_crashes(),
                )
            else:
                failure_spec = ((), ())
            payloads.append((app_ref, cell, cfg, failure_spec, storage_spec))
            cells.append(cell)

        if farm is not None:
            outcomes = farm.map(
                _execute_cell,
                payloads,
                parallel=parallel,
                # The farm executes through its own Session; honour this
                # session's fan-out width when the call does not name one.
                max_workers=max_workers or self.max_workers,
                cacheable=_cell_cacheable,
                labels=_cell_label,
            )
        else:
            outcomes = self._execute(payloads, parallel, max_workers)
        result = SweepResult(
            [RunRow(cell=c, outcome=o) for c, o in zip(cells, outcomes)]
        )
        if farm is not None:
            result.farm_stats = farm.last_stats
        return result

    # ------------------------------------------------------------------ #

    def map(
        self,
        fn: Callable[[Any], _T],
        payloads: Iterable[Any],
        *,
        parallel: bool = True,
        max_workers: Optional[int] = None,
    ) -> list[_T]:
        """Apply ``fn`` to every payload under the session's fan-out policy.

        This is the primitive behind :meth:`sweep` (and the chaos
        campaign runner): a :class:`ProcessPoolExecutor` when ``fn`` and
        every payload can reach workers, an in-process loop otherwise.
        Results preserve payload order and — because every payload is an
        independent deterministic simulation — are bit-identical across
        the two backends.  ``fn`` must be a module-level callable for the
        parallel path to be eligible.
        """
        payloads = list(payloads)
        if parallel and len(payloads) > 1:
            try:
                # Probe everything the pool would serialise — the callable
                # and the *complete* payloads, including per-cell params and
                # grid values (a single unpicklable param used to reach the
                # pool and kill it instead of falling back).
                pickle.dumps((fn, payloads))
            except Exception:
                # Closures / ad-hoc objects cannot reach workers; the serial
                # path computes the identical result in-process.
                parallel = False
        if not parallel or len(payloads) <= 1:
            return [fn(p) for p in payloads]
        workers = min(
            len(payloads),
            max_workers or self.max_workers or os.cpu_count() or 1,
        )
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, payloads))
        except (pickle.PicklingError, BrokenProcessPool, AttributeError, TypeError):
            # Something escaped the probe (an object whose __reduce__ only
            # fails inside the pool, a worker that died mid-serialisation);
            # same payloads, same order, in-process.
            return [fn(p) for p in payloads]

    def _execute(
        self,
        payloads: list[tuple],
        parallel: bool,
        max_workers: Optional[int],
    ) -> list[RunOutcome]:
        return self.map(
            _execute_cell, payloads, parallel=parallel, max_workers=max_workers
        )
