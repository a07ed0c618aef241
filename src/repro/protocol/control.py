"""Control messages of the C3 coordination protocol.

These are the out-of-band tokens of Section 4.1's four phases plus the
recovery-time handshakes.  They travel on the reserved ``TAG_CONTROL`` tag,
bypass piggybacking, and are never counted in the application-message
bookkeeping.

Protocol phases (paper Section 4.1):

1. initiator → all: :class:`PleaseCheckpoint`
2. each process, at its local checkpoint: :class:`MySendCount` to its
   receivers; once all late messages have arrived it sends
   :class:`ReadyToStopLogging` to the initiator
3. initiator, after hearing from everyone: :class:`StopLogging` to all
4. each process, after flushing its log: :class:`StoppedLogging` to the
   initiator, which then commits the global checkpoint

Recovery addition (a quiescence guard; Section 4.2's early-message
suppression lists travel in one Bruck ``alltoall`` at restore, ceil(log2(n))
messages per rank, not as tokens):

* :class:`ReplayDone` — a restarted process tells the initiator it has
  consumed its logs, so the initiator can safely start the next checkpoint
  wave (no wave may overlap a replay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class ControlMessage:
    """Base class; ``epoch`` scopes every token to one checkpoint wave."""

    #: Tokens are frozen values with int fields only, so equal tokens
    #: pickle to equal lengths and :func:`repro.simmpi.datatypes.sizeof`
    #: may size each distinct value once.
    sizeof_by_value: ClassVar[bool] = True

    epoch: int


@dataclass(frozen=True)
class PleaseCheckpoint(ControlMessage):
    """Phase 1: take a local checkpoint, moving into epoch ``epoch``."""


@dataclass(frozen=True)
class MySendCount(ControlMessage):
    """Phase 2: sender's application-message count for the *previous* epoch.

    ``epoch`` is the new epoch the sender just entered; ``count`` is the
    number of application messages it sent to the addressee during
    ``epoch - 1`` — the number of late messages the addressee must await
    (less those it already received intra-epoch).
    """

    sender: int
    count: int


@dataclass(frozen=True)
class ReadyToStopLogging(ControlMessage):
    """Phase 2→3: the sender has checkpointed and drained all late messages."""

    sender: int


@dataclass(frozen=True)
class StopLogging(ControlMessage):
    """Phase 3: every process has checkpointed; logging may cease."""


@dataclass(frozen=True)
class StoppedLogging(ControlMessage):
    """Phase 4: the sender has flushed its log to stable storage."""

    sender: int


@dataclass(frozen=True)
class ReplayDone(ControlMessage):
    """Recovery: the sender has exhausted its replay logs for ``epoch``."""

    sender: int
