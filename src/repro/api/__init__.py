"""``repro.api``: the canonical public surface of the reproduction.

Applications are written against :class:`CommLike` (implemented by the C3
protocol layer for variants V1–V3 and by :class:`RawCommAdapter` for V0),
registered via :class:`AppSpec`/:func:`app`, and executed through a
:class:`Session`, which runs each application under its
:class:`~repro.runtime.config.RunConfig` and fans sweeps out in parallel.  ``repro/__init__.py`` re-exports the stable names.
"""

from repro.api.comms import CommLike, RawCommAdapter, RawHandle
from repro.api.registry import AppSpec, app, get_app, list_apps, register
from repro.api.session import (
    ALL_VARIANTS,
    RunRow,
    Session,
    SweepCell,
    SweepResult,
)

__all__ = [
    "ALL_VARIANTS",
    "AppSpec",
    "CommLike",
    "RawCommAdapter",
    "RawHandle",
    "RunRow",
    "Session",
    "SweepCell",
    "SweepResult",
    "app",
    "get_app",
    "list_apps",
    "register",
]
