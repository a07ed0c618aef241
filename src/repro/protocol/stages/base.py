"""Protocol-layer configuration, counters and the shared ``CommLike`` surface.

The C3 layer (paper Figure 4) is one
:class:`~repro.protocol.stages.pipeline.ProtocolPipeline` per process.
It runs six protocol concerns, and counts each pass through one under
the concern's name in :attr:`LayerStats.stage_calls`:

=============  =====================================================
Concern        What it does
=============  =====================================================
piggyback      attach/strip the ``(color, amLogging, messageID)``
               word on every application message (Section 4.2)
classifier     late / intra-epoch / early classification (Def. 1)
message-log    late-message payload log, early-ID recording, match
               records, receive counters (Figure 4 event handler)
result-log     non-deterministic decision + collective result
               logging under the amLogging rule (Sections 3.2, 4.5)
replay         deterministic re-execution from the logged window and
               early-message resend suppression (recovery)
checkpoint     control plane, initiator, ``potentialCheckpoint``,
               epoch transitions, ``mySendCount``/``receivedAll?``
=============  =====================================================

The first five are pipeline code over the pipeline's own state (protocol
variables, logs, handle tables, stats).  ``checkpoint`` is the optional
part and the one object: the pipeline builds a
:class:`~repro.protocol.stages.checkpoint.CheckpointStage` exactly when it
is handed a storage (V2/V3).  V0 builds no pipeline (``RawCommAdapter``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.op import Op

#: The rank whose checkpoint stage runs the wave initiator (Section 4.1).
INITIATOR_RANK = 0


@dataclass
class C3Config:
    """Behavioural switches for the protocol layer.

    The four benchmark variants of Section 6 map onto pipelines as follows:

    * V0 "unmodified"      — no protocol layer: ``RawCommAdapter`` passes
      every call straight to the raw communicator and takes no config;
    * V1 "piggyback only"  — the protocol layer is active (piggybacking,
      classification, logging machinery) but the pipeline is built without
      a storage, so it has no checkpoint stage and no wave is ever
      initiated — the paper's "Using Protocol Layer, No Checkpoints";
    * V2 "no app state"    — with a storage, ``save_app_state=False``;
    * V3 "full"            — with a storage, everything on.
    """

    checkpoint_interval: Optional[float] = None
    save_app_state: bool = True


@dataclass
class LayerStats:
    """Per-rank protocol observability counters."""

    sends: int = 0
    receives: int = 0
    suppressed_sends: int = 0
    late_logged: int = 0
    early_recorded: int = 0
    nondet_logged: int = 0
    collectives: int = 0
    collective_results_logged: int = 0
    checkpoints_taken: int = 0
    replayed_late: int = 0
    replayed_matches: int = 0
    replayed_nondet: int = 0
    replayed_collectives: int = 0
    control_messages: int = 0
    log_finalizations: int = 0
    #: Checkpoint-storage accounting from per-generation manifests: what a
    #: flat pickle store would have written vs. what actually hit storage.
    ckpt_logical_bytes: int = 0
    ckpt_stored_bytes: int = 0
    ckpt_chunks_reused: int = 0
    #: Per-concern observability: passes through each of the pipeline's
    #: protocol concerns, keyed by concern name (the five protocol
    #: concerns always, ``checkpoint`` only when the pipeline has a
    #: checkpoint stage; empty for V0's raw adapter).
    stage_calls: dict[str, int] = field(default_factory=dict)


class SharedSurface:
    """The ``CommLike`` members written once for both implementations
    (``ProtocolPipeline`` and ``RawCommAdapter``).  Each data collective
    hands back ``self._co_coll(kind, comm, *args)``, the implementation's
    generator for one collective call; ``self._comm_of(handle)`` is the
    live communicator behind a handle (``None`` = world)."""

    def comm_rank(self, handle: Any = None) -> int:
        return self._comm_of(handle).rank

    def comm_size(self, handle: Any = None) -> int:
        return self._comm_of(handle).size

    def co_bcast(self, obj: Any, root: int = 0, comm: Any = None):
        return self._co_coll("bcast", comm, obj, root)

    def co_reduce(self, obj: Any, op: Op, root: int = 0, comm: Any = None):
        return self._co_coll("reduce", comm, obj, op, root)

    def co_allreduce(self, obj: Any, op: Op, comm: Any = None):
        return self._co_coll("allreduce", comm, obj, op)

    def co_gather(self, obj: Any, root: int = 0, comm: Any = None):
        return self._co_coll("gather", comm, obj, root)

    def co_allgather(self, obj: Any, comm: Any = None):
        return self._co_coll("allgather", comm, obj)

    def co_scatter(self, objs: list[Any] | None, root: int = 0, comm: Any = None):
        return self._co_coll("scatter", comm, objs, root)

    def co_alltoall(self, objs: list[Any], comm: Any = None):
        return self._co_coll("alltoall", comm, objs)

    def co_scan(self, obj: Any, op: Op, comm: Any = None):
        return self._co_coll("scan", comm, obj, op)
