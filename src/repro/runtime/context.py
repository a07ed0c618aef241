"""The application-facing context for checkpointable MPI programs.

:class:`C3AppContext` is what an application's ``main(ctx)`` receives when
run under the recovery driver.  It exposes:

* ``ctx.mpi`` — the full MPI interface, routed through the C3 protocol
  layer (or a pass-through configuration for baseline variants);
* ``ctx.potential_checkpoint()`` — the paper's ``PotentialCheckpoint``
  call, the only source modification the paper asks of programmers;
* ``ctx.checkpointable_state(init)`` — the *manual* state-saving path: the
  application registers one state object; on a fresh start ``init()``
  builds it, on restart the checkpointed copy is returned.  (The
  precompiler package provides the *automated* path, where the transformed
  code saves and rebuilds its own stack.)
* ``ctx.nondet(fn)`` — non-deterministic decisions, logged/replayed by the
  protocol (Section 3.2);
* ``ctx.compute(flops)`` — virtual-time accounting for compute phases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError
from repro.simmpi import coop
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
        # Generator twins of the two protocol hooks, bound once (a CommLike
        # double without a co_* surface gets its synchronous method wrapped).
        self.co_potential_checkpoint = coop.co_method(layer, "potential_checkpoint")
        self.co_nondet = coop.co_method(layer, "nondet")
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
    def rank(self) -> int:
        return self._rank_ctx.rank

    @property
    def size(self) -> int:
        return self._rank_ctx.size

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
        """Virtual time, the replay-stable substitute for ``time.time()``
        (what ``repro-check --fix`` rewrites wall-clock reads into)."""
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

    def potential_checkpoint(self) -> bool:
        """The paper's ``PotentialCheckpoint()`` call."""
        return self.mpi.potential_checkpoint()

    def nondet(self, compute: Callable[[], Any]) -> Any:
        """Make a non-deterministic decision under protocol logging."""
        return self.mpi.nondet(compute)

    def random(self) -> float:
        """Protocol-logged uniform variate from the per-rank stream."""
        return self.nondet(self._rank_ctx.rng.random)

    def co_random(self):
        """Generator twin of :meth:`random`."""
        return (yield from self.co_nondet(self._rank_ctx.rng.random))
