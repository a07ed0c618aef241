"""Composable protocol stages (the decomposed C3 layer).

See :mod:`repro.protocol.stages.base` for the stage interface and
:mod:`repro.protocol.stages.pipeline` for the fixed stage sequence.
"""

from repro.protocol.stages.base import C3Config, LayerStats, ProtocolStage
from repro.protocol.stages.checkpoint import CheckpointStage
from repro.protocol.stages.classifier import ClassifierStage
from repro.protocol.stages.message_log import MessageLogStage
from repro.protocol.stages.piggyback import PiggybackStage
from repro.protocol.stages.pipeline import ProtocolPipeline
from repro.protocol.stages.replay import ReplayStage
from repro.protocol.stages.result_log import ResultLogStage

__all__ = [
    "C3Config",
    "CheckpointStage",
    "ClassifierStage",
    "LayerStats",
    "MessageLogStage",
    "PiggybackStage",
    "ProtocolPipeline",
    "ProtocolStage",
    "ReplayStage",
    "ResultLogStage",
]
