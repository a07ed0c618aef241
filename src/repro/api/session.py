"""``Session``: runs and sweeps of applications, each under its ``RunConfig``.

The free-function driver (:func:`repro.runtime.driver.run_with_recovery`)
runs one application under one :class:`~repro.runtime.config.RunConfig`.
A :class:`Session` resolves app names and adds the sweep machinery the
Figure-8 protocol implies; the config alone configures each run:

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
from repro.errors import CheckError, ConfigError
from repro.precompiler.api import PrecompiledApp
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import RunOutcome, run_with_recovery
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
        """One flat table row: the cell's coordinates, then the outcome's
        results and counters (``wall_seconds`` is the one host-time column)."""
        out = self.outcome
        row: dict[str, Any] = {
            "app": self.cell.app,
            "variant": self.cell.variant.value,
            "seed": self.cell.seed,
            "nprocs": self.cell.nprocs,
            "params": self.cell.params,
        }
        row.update(self.cell.overrides)
        row.update(
            results=out.results,
            attempts=len(out.attempts),
            restarts=out.restarts,
            virtual_time=out.total_virtual_time,
            wall_seconds=out.total_wall_seconds,
            checkpoints_committed=out.checkpoints_committed,
            storage_bytes=out.storage_bytes_written,
            network_messages=out.network_messages,
            network_bytes=out.network_bytes,
            stage_calls={
                name: entry["calls"] for name, entry in sorted(out.stage_totals().items())
            },
        )
        return row


class SweepResult:
    """Ordered collection of sweep rows (cell order is the axis product)."""

    def __init__(self, rows: list[RunRow]) -> None:
        self.rows = rows
        #: Cache accounting when the sweep ran through a farm
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
        """``{variant: outcome}``, one entry per variant.

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

    Only cells with in-memory storage are cached: a cell persisting
    checkpoints to its own directory has side effects a cache hit would
    silently skip."""
    return payload[2].storage_path is None


def _execute_cell(payload: tuple) -> RunOutcome:
    """Run one sweep cell; works identically in-process and in a worker."""
    app_ref, cell, config, failure_spec = payload
    app_main = _build_app(app_ref, cell.params)
    kill_events, ckpt_crashes = failure_spec
    failures = (
        FailureSchedule(kill_events, checkpoint_crashes=ckpt_crashes)
        if kill_events or ckpt_crashes
        else None
    )
    storage = Storage.from_config(config)
    # Every sweep cell starts from a fresh storage (the documented
    # contract).  The per-cell slug normally guarantees an empty
    # directory, but a retried cell — e.g. the serial fallback after a
    # worker-pool failure part-way through — must not resume from its own
    # first pass's checkpoints and skew the row's accounting.
    if config.storage_path is not None and (
        storage.commit_history() or storage.store.streams()
    ):
        storage.wipe()
    return run_with_recovery(app_main, config, failures=failures, storage=storage)


# ===================================================================== #
# The Session facade.
# ===================================================================== #


class Session:
    """Runs and sweeps applications; each run is configured by its
    :class:`RunConfig` alone.

    ``max_workers`` is the process-pool width for sweeps; it defaults to
    ``os.cpu_count()`` capped by the number of cells.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    # ------------------------------------------------------------------ #

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
        """The one static-check gate (``RunConfig.check``), run before any
        rank: ``"off"`` skips it, ``"warn"`` prints the findings and lets
        the run go ahead, ``"error"`` refuses an app with error findings
        (:class:`~repro.errors.CheckError`).

        Every app form is checked on one path.  Names and specs go
        through :func:`repro.check.check_app` (their defining module);
        generator mains and a bare :class:`PrecompiledApp` go through
        :func:`repro.check.check_functions`, over the functions as written
        (for a precompiled app, the ones its unit was compiled from,
        ``unit.originals``).  Anything else, and a function whose source
        cannot be read (REPL / exec-defined), is not checked.
        """
        if level == "off":
            return
        import inspect
        import sys

        from repro.check import check_app, check_functions

        spec = app if isinstance(app, AppSpec) else getattr(app, "__app_spec__", None)
        if isinstance(app, str):
            result = check_app(app)
        elif isinstance(spec, AppSpec):
            result = check_app(spec.name)
        elif isinstance(app, PrecompiledApp):
            result = check_functions(app.unit.originals, target=self._app_name(app))
        elif inspect.isfunction(app):
            try:
                inspect.getsource(app)
            except (OSError, TypeError):
                return
            result = check_functions([app], target=self._app_name(app))
        else:
            return
        if not result.ok and level == "error":
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
    ) -> RunOutcome:
        """Execute one application under one configuration.

        ``params`` reaches the application as ``ctx.params`` (for a spec,
        ``None`` means the spec's default parameters; for a bare callable,
        ``None`` leaves the callable untouched).  ``config.check`` of
        ``"warn"`` prints static-verifier findings before running;
        ``"error"`` refuses to run an app with error findings
        (:class:`~repro.errors.CheckError`).  ``storage`` (for callers that
        inspect the store afterwards) wins over the config's
        ``storage_path``/``ckpt_keep_last``.
        """
        self._run_check(app, config.check)
        app_main = _build_app(self._app_ref(app), params)
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
        parallel: bool = True,
        max_workers: Optional[int] = None,
        farm: Optional["Farm"] = None,
    ) -> SweepResult:
        """Run the cross product of the requested axes.

        Cell order is the axis product in the order
        ``variants × seeds × nprocs × params × grid``; results always come
        back in that order regardless of execution backend, and each cell
        gets a fresh storage so checkpoints cannot leak between cells.
        When a cell's config names a ``storage_path``, the cell persists to
        a unique subdirectory of that path; otherwise it stores in memory.
        ``base_config.check`` is applied once, up front.

        ``farm`` routes execution through a :class:`repro.farm.Farm`:
        cells whose fingerprint is already cached are returned without
        running a simulator (bit-identical outcomes), the rest execute
        and are cached.  Cells that persist checkpoints to a
        ``storage_path`` run uncached.  The returned :class:`SweepResult`
        carries ``farm_stats``.
        """
        base_config = base_config if base_config is not None else RunConfig(nprocs=4)
        # Once up front — every cell runs the same application.
        self._run_check(app, base_config.check)
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
            if cfg.storage_path is not None:
                # Persist where the config asks to, but never share a
                # directory between cells (one COMMIT record per store).
                slug = f"cell{index:04d}-{variant.value}-seed{seed}-np{np_}"
                cfg = replace(cfg, storage_path=os.path.join(cfg.storage_path, slug))
            sched = failures(cell) if callable(failures) else failures
            if sched is not None:
                failure_spec = (
                    tuple(sched.remaining()),
                    sched.remaining_checkpoint_crashes(),
                )
            else:
                failure_spec = ((), ())
            payloads.append((app_ref, cell, cfg, failure_spec))
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
