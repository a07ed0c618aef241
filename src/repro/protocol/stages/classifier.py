"""Epoch-classifier stage (paper Definition 1 and Section 4.2).

Given a decoded piggyback word and the receiver's protocol state, decide
whether the message is late, intra-epoch, or early.  With the full codec
the sender's absolute epoch is on the wire; with the packed codec only
the color bit is, and the receiver's logging state disambiguates.
"""

from __future__ import annotations

from repro.protocol.classify import MessageClass, classify_by_color, classify_by_epoch
from repro.protocol.piggyback import FullCodec, PiggybackInfo
from repro.protocol.stages.base import ProtocolStage


class ClassifierStage(ProtocolStage):
    """Classify one arrived message against the receiver's epoch."""

    name = "classifier"

    def bind(self, core) -> None:
        super().bind(core)
        #: The codec is fixed for the pipeline's life, so its rule is too.
        self._by_epoch = isinstance(core.codec, FullCodec)

    def classify(self, info: PiggybackInfo) -> MessageClass:
        state = self.core.state
        if self._by_epoch:
            return classify_by_epoch(info.epoch, state.epoch)
        return classify_by_color(info.epoch & 1, state.epoch, state.am_logging)
