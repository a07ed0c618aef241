"""Global-variable registry (paper Section 5.1.2, final paragraph).

The paper saves a program's global variables through the same VDS mechanism
as stack variables, discovering them by scanning all source files.  The
Python analogue: applications register the module-level names they mutate;
the registry snapshots their values into every checkpoint and writes them
back on restore.

The registry addresses globals as ``(module_name, attribute)`` pairs and
reads/writes them through the live module object, so restored values are
visible to every function that references the global.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any

from repro.errors import CheckpointError


class GlobalsRegistry:
    """Tracks registered module-level variables for checkpointing."""

    def __init__(self) -> None:
        self._entries: list[tuple[str, str]] = []

    def register(self, module_name: str, attribute: str) -> None:
        """Track ``module.attribute``; idempotent."""
        module = self._module(module_name)
        if not hasattr(module, attribute):
            raise CheckpointError(
                f"module {module_name!r} has no attribute {attribute!r}"
            )
        key = (module_name, attribute)
        if key not in self._entries:
            self._entries.append(key)

    def register_many(self, module_name: str, attributes: list[str]) -> None:
        for attr in attributes:
            self.register(module_name, attr)

    @staticmethod
    def _module(name: str):
        module = sys.modules.get(name)
        if module is None:
            module = importlib.import_module(name)
        return module

    @property
    def registered(self) -> list[tuple[str, str]]:
        return list(self._entries)

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[tuple[str, str], Any]:
        """Current values of every registered global."""
        return {
            (mod, attr): getattr(self._module(mod), attr)
            for mod, attr in self._entries
        }

    def restore(self, image: dict[tuple[str, str], Any]) -> None:
        """Write checkpointed values back into the live modules."""
        for (mod, attr), value in image.items():
            setattr(self._module(mod), attr, value)
            key = (mod, attr)
            if key not in self._entries:
                self._entries.append(key)


#: Process-wide default registry: :func:`checkpointable_state` feeds it,
#: Storage-based drivers snapshot/restore through it.
DEFAULT_REGISTRY = GlobalsRegistry()


def checkpointable_state(
    *names: str,
    module: str | None = None,
    registry: GlobalsRegistry | None = None,
) -> None:
    """Declare module-level variables as checkpointable state.

    Called at module top level next to the globals it registers::

        CACHE: dict = {}
        checkpointable_state("CACHE")

    The declaration registers ``<calling module>.CACHE`` with the
    :data:`DEFAULT_REGISTRY` (pass ``module=``/``registry=`` to override)
    and — equally important — is recognised *statically* by
    ``repro-check``: registered names are exempt from the RPR030/033
    escape findings.  One process-wide value is snapshotted into every
    rank's checkpoint, so register rank-uniform state only.
    """
    if module is None:
        frame = sys._getframe(1)
        module = frame.f_globals.get("__name__", "__main__")
    reg = registry if registry is not None else DEFAULT_REGISTRY
    reg.register_many(module, list(names))
