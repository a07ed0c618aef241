"""The application-facing context for checkpointable MPI programs.

:class:`C3AppContext` is what an application's ``main(ctx)`` receives when
run under the recovery driver.  It exposes:

* ``ctx.mpi`` — the full MPI interface, routed through the C3 protocol
  layer (or a pass-through configuration for baseline variants);
* ``ctx.co_potential_checkpoint()`` — the paper's ``PotentialCheckpoint``
  call, the only source modification the paper asks of programmers
  (precompiled code spells it ``ctx.potential_checkpoint()``; the
  precompiler emits the generator form);
* ``ctx.checkpointable_state(init)`` — the *manual* state-saving path: the
  application registers one state object; on a fresh start ``init()``
  builds it, on restart the checkpointed copy is returned.  (The
  precompiler package provides the *automated* path, where the transformed
  code saves and rebuilds its own stack.)
* ``ctx.co_nondet(fn)`` / ``ctx.co_random()`` — non-deterministic
  decisions, logged/replayed by the protocol (Section 3.2);
* ``ctx.compute(flops)`` — virtual-time accounting for compute phases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError
from repro.simmpi.simulator import RankContext
from repro.statesave.globals_registry import DEFAULT_REGISTRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.comms import CommLike


class C3AppContext:
    """Per-rank application handle under the recovery driver."""

    def __init__(
        self,
        rank_ctx: RankContext,
        layer: "CommLike",
        restored_app_state: Any = None,
        restored: bool = False,
    ) -> None:
        self._rank_ctx = rank_ctx
        #: This rank and the number of ranks, copied once: application
        #: code reads them around every message.
        self.rank = rank_ctx.rank
        self.size = rank_ctx.size
        #: The messaging surface — any CommLike implementation (the C3
        #: protocol layer for V1–V3, the raw adapter for V0).
        self.mpi: "CommLike" = layer
        self._registered_state: Any = None
        self._state_registered = False
        self._restored_app_state = restored_app_state
        self.restored = restored
        #: Opaque run parameters (set by PrecompiledApp or harness code).
        self.params: Any = None
        layer.state_provider = self._capture_state
        # The two protocol hooks are the layer's generators, bound once:
        # ``yield from ctx.co_potential_checkpoint()`` /
        # ``yield from ctx.co_nondet(fn)``.
        self.co_potential_checkpoint = layer.co_potential_checkpoint
        self.co_nondet = layer.co_nondet
        # Registered module globals (repro.statesave.checkpointable_state)
        # ride along in every checkpoint blob.  Module globals are shared
        # process-wide in the simulator, so rank 0's snapshot is the
        # canonical copy written back on restart.
        if (
            restored
            and rank_ctx.rank == 0
            and isinstance(restored_app_state, dict)
            and restored_app_state.get("globals")
        ):
            DEFAULT_REGISTRY.restore(restored_app_state["globals"])

    # ------------------------------------------------------------------ #

    @property
    def rng(self):
        """Per-rank deterministic RNG (route draws through ``nondet`` if
        they happen after a checkpoint and can influence messages)."""
        return self._rank_ctx.rng

    def compute(self, flops: float = 0.0, seconds: float = 0.0) -> None:
        self._rank_ctx.compute(flops, seconds)

    def wtime(self) -> float:
        return self._rank_ctx.wtime()

    def now(self) -> float:
        """Virtual time, for timing.  It is not replayed: a restarted rank
        reads another value, so a clock value that reaches a message or
        the result goes through ``ctx.nondet`` (``repro-check``'s RPR021
        hint)."""
        return self.wtime()

    # ------------------------------------------------------------------ #

    def checkpointable_state(self, init: Callable[[], Any]) -> Any:
        """Register (and obtain) the application's checkpointable state.

        Call exactly once, before the main loop.  Returns ``init()`` on a
        fresh start and the restored state object on a restart.  The same
        object is captured at every subsequent checkpoint, so applications
        should mutate it in place.

        The per-rank RNG stream rides along automatically: like any other
        application memory (the paper's VDS/heap view of a C ``rand``
        state), its position is checkpointed and resumes mid-stream on
        restart — so ``ctx.rng`` draws are deterministic application
        computation, not protocol-level non-determinism.
        """
        if self._state_registered:
            raise ConfigError("checkpointable_state() may only be called once")
        self._state_registered = True
        if self.restored and self._restored_app_state is not None:
            blob = self._restored_app_state
            self._rank_ctx.rng = blob["rng"]
            self._registered_state = blob["user"]
        else:
            self._registered_state = init()
        return self._registered_state

    def _capture_state(self) -> Any:
        state = {"user": self._registered_state, "rng": self._rank_ctx.rng}
        registered = DEFAULT_REGISTRY.snapshot()
        if registered:
            state["globals"] = registered
        return state

    # ------------------------------------------------------------------ #

    def co_random(self):
        """Protocol-logged uniform variate from the per-rank stream."""
        return (yield from self.co_nondet(self._rank_ctx.rng.random))

    def co_yield_point(self):
        """Voluntary scheduling point (lets other ranks run)."""
        yield from self._rank_ctx.co_yield_point()
