"""Piggyback attach/strip stage (paper Section 4.2).

Owns the wire codec: every outgoing application message gets a
``(epoch-color, amLogging, messageID)`` word attached; every incoming
envelope gets it stripped and decoded into a
:class:`~repro.protocol.piggyback.PiggybackInfo`.
"""

from __future__ import annotations

from repro.protocol.piggyback import PiggybackInfo, get_codec
from repro.protocol.stages.base import C3Config, ProtocolStage


class PiggybackStage(ProtocolStage):
    """Attach the piggyback word on send; strip and decode it on receive."""

    name = "piggyback"

    def __init__(self, config: C3Config) -> None:
        super().__init__(config)
        self.codec = get_codec(config.codec)

    def encode(self, epoch: int, am_logging: bool, message_id: int):
        """The wire word for one outgoing application message."""
        return self.codec.encode(epoch, am_logging, message_id)

    def decode(self, env) -> PiggybackInfo:
        """Strip one arrived envelope's piggyback word."""
        return self.codec.decode(env.piggyback, self.core.state.epoch)
