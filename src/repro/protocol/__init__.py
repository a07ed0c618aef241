"""The C3 non-blocking coordinated application-level checkpointing protocol.

This package is the paper's primary contribution: a coordination protocol
that works when checkpoints can only be taken at application-chosen points,
handling late and early messages, non-FIFO application-level delivery,
non-determinism, collective communication, and MPI library state — all from
a layer between the application and the MPI library (here, the simulator).
"""

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
    "Initiator",
    "LateMessageLog",
    "LateRecord",
    "LayerStats",
    "MatchLog",
    "MatchRecord",
    "NondetLog",
    "ProtocolState",
    "PseudoHandle",
    "PseudoRequest",
    "RequestTable",
    "WavePhase",
]
