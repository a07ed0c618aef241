"""The C3 non-blocking coordinated application-level checkpointing protocol.

This package is the paper's primary contribution: a coordination protocol
that works when checkpoints can only be taken at application-chosen points,
handling late and early messages, non-FIFO application-level delivery,
non-determinism, collective communication, and MPI library state — all from
a layer between the application and the MPI library (here, the simulator).
"""

from repro.protocol.classify import (
    MessageClass,
    classify_by_color,
    classify_by_epoch,
)
from repro.protocol.initiator import Initiator, WavePhase
from repro.protocol.logs import (
    CollectiveRecord,
    EpochLogs,
    LateMessageLog,
    LateRecord,
    MatchLog,
    MatchRecord,
    NondetLog,
)
from repro.protocol.piggyback import (
    FullCodec,
    PackedCodec,
    PiggybackInfo,
    get_codec,
    infer_epoch_from_color,
)
from repro.protocol.pseudo_handles import PseudoHandle, PseudoRequest, RequestTable
from repro.protocol.stages import (
    C3Config,
    LayerStats,
    ProtocolPipeline,
)
from repro.protocol.state import ProtocolState

__all__ = [
    "ProtocolPipeline",
    "C3Config",
    "CollectiveRecord",
    "EpochLogs",
    "FullCodec",
    "Initiator",
    "LateMessageLog",
    "LateRecord",
    "LayerStats",
    "MatchLog",
    "MatchRecord",
    "MessageClass",
    "NondetLog",
    "PackedCodec",
    "PiggybackInfo",
    "ProtocolState",
    "PseudoHandle",
    "PseudoRequest",
    "RequestTable",
    "WavePhase",
    "classify_by_color",
    "classify_by_epoch",
    "get_codec",
    "infer_epoch_from_color",
]
