"""The C3 protocol layer (the paper's Figure 4).

See :mod:`repro.protocol.stages.base` for the six protocol concerns and
:mod:`repro.protocol.stages.pipeline` for the pipeline that runs them.
"""

from repro.protocol.stages.base import C3Config, LayerStats
from repro.protocol.stages.checkpoint import CheckpointStage
from repro.protocol.stages.pipeline import ProtocolPipeline

__all__ = [
    "C3Config",
    "CheckpointStage",
    "LayerStats",
    "ProtocolPipeline",
]
