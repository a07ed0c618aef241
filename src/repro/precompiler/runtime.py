"""Runtime support for precompiled (transformed) functions.

The paper maintains an explicit Position Stack (PS) and Variable Descriptor
Stack (VDS) because C offers no stack introspection.  Python does, so this
runtime realises the same architecture lazily:

* **PS** — at checkpoint time, :meth:`C3StackRuntime.capture` walks the live
  Python frames of the executing rank; every frame belonging to a
  transformed function contributes ``(function id, frame locals)``.  The
  transformed function's ``_pc`` local *is* the position label: it names the
  basic block whose first statement is the checkpointable call (or the
  ``potential_checkpoint``) currently active in that frame.
* **VDS** — the captured ``f_locals`` dict plays the VDS role, cut down to
  the names live on entry to the active block (the unit's ``saved_locals``
  table); dead locals are never read again, and the context parameter is
  re-supplied naturally by re-executed call expressions during restore.

On restart, each transformed function's prologue calls :func:`c3_enter`;
while a restore is active this pops the next saved frame, re-seeds the
locals and the ``_pc``, and the dispatch loop jumps straight back into the
middle of the function — re-executing the active call, which re-enters the
next function down, until the innermost frame's ``potential_checkpoint``
block is reached and normal execution resumes (the Figure-6 mechanism).

One runtime instance is active per rank: it lives in the executing
:class:`~repro.simmpi.process.Proc`'s ``c3_runtime`` slot, found through
the simulator's current-proc registry (:mod:`repro.simmpi.coop`).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import RecoveryError
from repro.simmpi import coop

if TYPE_CHECKING:  # pragma: no cover
    from repro.precompiler.api import PrecompiledUnit

#: One saved frame: (function id, locals-dict including '_pc').
FrameRecord = tuple[str, dict[str, Any]]


def current_runtime() -> Optional["C3StackRuntime"]:
    """The executing rank's active runtime (None outside any rank)."""
    proc = coop.current_proc()
    return proc.c3_runtime if proc is not None else None


def c3_enter(func_id: str) -> Optional[dict[str, Any]]:
    """Prologue hook of every transformed function.

    Returns the saved frame dict while a restore is in progress, or None
    for a fresh activation.  Calling a transformed function with no active
    runtime is legal (plain execution, no checkpoint ability).
    """
    rt = current_runtime()
    if rt is None or not rt.restoring:
        return None
    return rt._pop_frame(func_id)


class C3StackRuntime:
    """Per-rank stack capture/restore engine."""

    def __init__(self, unit: "PrecompiledUnit") -> None:
        self.unit = unit
        self._restore_stack: list[FrameRecord] = []
        self.restoring = False
        #: Capture/restore cycle counters (observability).
        self.captures = 0
        self.restores = 0

    # ------------------------------------------------------------------ #

    def activate(self) -> "C3StackRuntime":
        """Install as the executing rank's active runtime."""
        proc = coop.current_proc()
        if proc is None:
            raise RecoveryError(
                "C3StackRuntime.activate() outside a rank: run the unit under "
                "the simulator, or install a rank with coop.set_current_proc()"
            )
        proc.c3_runtime = self
        return self

    def deactivate(self) -> None:
        proc = coop.current_proc()
        if proc is not None and proc.c3_runtime is self:
            proc.c3_runtime = None

    # ------------------------------------------------------------------ #

    def capture(self) -> list[FrameRecord]:
        """Walk the live stack; returns frame records outermost-first.

        Called (indirectly) from inside ``potential_checkpoint`` via the
        protocol layer's state provider, so every transformed frame of the
        executing rank is live and its ``_pc`` names the active block.
        """
        self.captures += 1
        saved_locals = self.unit.saved_locals
        records: list[FrameRecord] = []
        frame = sys._getframe()
        while frame is not None:
            func_id = self.unit.code_map.get(frame.f_code)
            if func_id is not None:
                f_locals = frame.f_locals
                try:
                    live = saved_locals[func_id][f_locals["_pc"]]
                except KeyError:
                    raise RecoveryError(
                        f"transformed frame {func_id} is not at a checkpointable "
                        "block — capture outside the dispatch loop?"
                    ) from None
                # Frame order, not set order: the pickle must not depend
                # on the hash seed.
                record = {n: v for n, v in f_locals.items() if n in live or n == "_pc"}
                records.append((func_id, record))
            frame = frame.f_back
        records.reverse()
        return records

    # ------------------------------------------------------------------ #

    def begin_restore(self, frames: list[FrameRecord]) -> None:
        """Arm the restore: the next entries into transformed functions will
        consume these records outermost-first."""
        if not frames:
            self.restoring = False
            return
        self._restore_stack = list(frames)
        self.restoring = True
        self.restores += 1

    def _pop_frame(self, func_id: str) -> dict[str, Any]:
        if not self._restore_stack:
            raise RecoveryError(
                f"restore stack empty but {func_id} still asked for a frame"
            )
        saved_id, saved_locals = self._restore_stack.pop(0)
        if saved_id != func_id:
            raise RecoveryError(
                f"restore mismatch: stack says {saved_id!r}, entering {func_id!r}"
            )
        if not self._restore_stack:
            # Deepest frame reached: restore complete, run free from here.
            self.restoring = False
        return saved_locals
