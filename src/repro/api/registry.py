"""Application registration: one way to name a driver-runnable program.

The driver runs an ``app_main`` that is a generator function ``main(ctx)``
or has a ``co_call(ctx)`` generator entry (:func:`app_entry`); the paper's
benchmark applications are :class:`~repro.precompiler.api.PrecompiledApp`
units built by per-module ``build(params)`` factories.  :class:`AppSpec` unifies the
two shapes behind a name, which buys three things:

* ``session.run("dense_cg", cfg, params=...)`` — no import plumbing in
  harness or example code;
* sweeps can rehydrate an application *inside a worker process* from
  ``(module, name, params)`` — precompiled units hold exec'd code objects
  and cannot be pickled, but their specs can be re-imported anywhere;
* the catalogue in :mod:`repro.apps.workloads` is enumerable.

Register a factory (``params -> app_main``) explicitly::

    SPEC = register(AppSpec("dense_cg", factory=build, default_params=CGParams()))

or decorate a generator ``main(ctx)`` function::

    @repro.app
    def my_solver(ctx):
        total = yield from ctx.mpi.co_allreduce(ctx.rank, SUM)
        ...
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ConfigError

#: Anything the recovery driver can execute for one rank (see app_entry).
AppMain = Callable[[Any], Any]


def app_entry(app_main: Any) -> Callable[[Any], Any]:
    """The generator entry the driver runs on every rank of ``app_main``.

    Every simulated MPI call that can block is a scheduling point, which a
    rank reaches through a ``yield``.  So a main is either a generator
    function or an object with a ``co_call(ctx)`` generator entry — a
    :class:`~repro.precompiler.api.PrecompiledApp`, whose transformed code
    keeps plain MPI calls in the source.  Anything else is a
    :class:`ConfigError`, raised before any rank runs.
    """
    co_call = getattr(app_main, "co_call", None)
    if co_call is not None:
        return co_call
    if inspect.isgeneratorfunction(app_main):
        return app_main
    raise ConfigError(
        f"{getattr(app_main, '__name__', app_main)!r} is not a runnable rank "
        "main: write it as a generator function (yield from "
        "ctx.mpi.co_send(...)), or keep plain MPI calls and precompile it: "
        "PrecompiledApp(Precompiler([main]).compile(), entry='main')"
    )

_REGISTRY: dict[str, "AppSpec"] = {}

#: Modules searched (in order) when an unknown name is looked up; importing
#: them runs their ``register`` calls.  The paper's catalogue registers all
#: three benchmark applications.
AUTOLOAD_MODULES = ("repro.apps.workloads",)


@dataclass(frozen=True)
class AppSpec:
    """A named, rebuildable application."""

    name: str
    #: ``factory(params)`` returns a driver-ready ``app_main`` callable.
    factory: Callable[[Any], AppMain]
    default_params: Any = None
    description: str = ""
    #: Module whose import (re)registers this spec — how worker processes
    #: rehydrate it.  Defaults to the factory's defining module.
    module: str = field(default="")

    def __post_init__(self) -> None:
        if not self.module:
            object.__setattr__(
                self, "module", getattr(self.factory, "__module__", "") or ""
            )

    def build(self, params: Any = None) -> AppMain:
        """Instantiate the application for ``params`` (default size if None)."""
        return self.factory(params if params is not None else self.default_params)


class _FunctionApp:
    """Driver adapter for a ``main(ctx)`` app: exposes run parameters as
    ``ctx.params``, like :class:`PrecompiledApp` does."""

    def __init__(self, fn: AppMain, params: Any) -> None:
        self.fn = fn
        self.params = params
        self._entry = app_entry(fn)

    def co_call(self, ctx: Any):
        ctx.params = self.params
        return (yield from self._entry(ctx))


def register(spec: AppSpec) -> AppSpec:
    """Add ``spec`` to the registry (idempotent per name+module)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.module != spec.module:
        raise ConfigError(
            f"app {spec.name!r} already registered by {existing.module!r}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def app(fn: Optional[AppMain] = None, *, name: str = "", default_params: Any = None):
    """Decorator registering a generator ``main(ctx)`` function as an app.

    Usable bare (``@repro.app``) or configured
    (``@repro.app(name="ring", default_params=...)``).  The decorated
    function is returned unchanged; its spec wraps it so ``ctx.params``
    carries the sweep/run parameters.
    """

    def decorate(target: AppMain) -> AppMain:
        doc = (target.__doc__ or "").strip()
        spec = AppSpec(
            name=name or target.__name__,
            factory=lambda params, _fn=target: _FunctionApp(_fn, params),
            default_params=default_params,
            description=doc.splitlines()[0] if doc else "",
            module=target.__module__,
        )
        register(spec)
        target.__app_spec__ = spec  # type: ignore[attr-defined]
        return target

    if fn is not None:
        return decorate(fn)
    return decorate


def get_app(name: str) -> AppSpec:
    """Look up a registered spec, importing the catalogue on first miss."""
    if name not in _REGISTRY:
        for module in AUTOLOAD_MODULES:
            importlib.import_module(module)
            if name in _REGISTRY:
                break
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigError(f"unknown app {name!r}; registered: {known}") from None


def rehydrate(module: str, name: str) -> AppSpec:
    """Worker-process lookup: import the registering module, then resolve."""
    if module:
        importlib.import_module(module)
    return get_app(name)


def list_apps() -> dict[str, AppSpec]:
    """Snapshot of the registry (autoloading the catalogue first)."""
    for module in AUTOLOAD_MODULES:
        importlib.import_module(module)
    return dict(_REGISTRY)
