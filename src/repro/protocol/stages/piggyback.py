"""Piggyback attach/strip stage (paper Section 4.2).

Owns the wire codec: every outgoing application message gets a
``(epoch-color, amLogging, messageID)`` word attached; every incoming
envelope gets it stripped and decoded into a
:class:`~repro.protocol.piggyback.PiggybackInfo`.
"""

from __future__ import annotations

from repro.protocol.piggyback import PiggybackInfo
from repro.protocol.stages.base import ProtocolStage


class PiggybackStage(ProtocolStage):
    """Attach the piggyback word on send; strip and decode it on receive."""

    name = "piggyback"

    def bind(self, core) -> None:
        super().bind(core)
        #: The pipeline's codec (built once from ``config.codec``).
        self.codec = core.codec

    def encode(self, epoch: int, am_logging: bool, message_id: int):
        """The wire word for one outgoing application message."""
        return self.codec.encode(epoch, am_logging, message_id)

    def decode(self, env) -> PiggybackInfo:
        """Strip one arrived envelope's piggyback word."""
        return self.codec.decode(env.piggyback, self.core.state.epoch)
