"""Checkpoint-epoch logs (paper Sections 4.1 phase 2 and 4.5).

While a process is *logging* (from its local checkpoint until logging
terminates) it records everything its saved epoch boundary causally depends
on:

* :class:`LateMessageLog` — payloads of late messages, so they can be
  replayed to the application after restart (their senders will never
  resend them);
* :class:`NondetLog` — results of non-deterministic decisions, so
  re-execution reproduces the exact run that peers' checkpoints may have
  observed through early messages;
* :class:`CollectiveResultLog` — results of collective calls executed while
  logging (paper Section 4.5), replayed without communication because some
  participants will not re-execute the call;
* :class:`MatchLog` — which concrete message ``(source, messageID)``
  completed each application receive.  The paper folds receive-matching
  order into "non-deterministic decisions"; recording it per receive makes
  replay exact even for wildcard receives under non-FIFO delivery.

All four are plain lists of write-once records (named tuples: no field names in
the pickle) with cursor-based replay consumption, saved at ``finalizeLog`` time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.errors import RecoveryError


class LateRecord(NamedTuple):
    """One logged late message."""

    source: int
    tag: int
    message_id: int
    payload: Any


class MatchRecord(NamedTuple):
    """Which message completed one application receive."""

    source: int
    tag: int
    message_id: int
    was_late: bool


class CollectiveRecord(NamedTuple):
    """Result of one collective executed while logging."""

    kind: str
    result: Any


class _CursorLog:
    """A record list with an append side and a replay cursor."""

    def __init__(self) -> None:
        self.records: list[Any] = []
        self.cursor = 0

    def append(self, record: Any) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.records)

    def peek(self) -> Any:
        if self.exhausted:
            raise RecoveryError(f"{type(self).__name__}: replay past end of log")
        return self.records[self.cursor]

    def next(self) -> Any:
        record = self.peek()
        self.cursor += 1
        return record

    def rewind(self) -> None:
        self.cursor = 0


class NondetLog(_CursorLog):
    """Results of non-deterministic decisions, in execution order."""


class MatchLog(_CursorLog):
    """Receive-completion records, in receive order."""


class CollectiveResultLog(_CursorLog):
    """Collective results, in call order."""


class LateMessageLog:
    """Late messages, consumable by (source, tag) or by exact message id.

    Unlike the cursor logs, late messages are consumed *by match*: during
    replay a receive descriptor pulls the specific logged message the match
    log names, and free-running receives after the replay window pull the
    oldest record matching ``(source, tag)``.
    """

    def __init__(self) -> None:
        self.records: list[LateRecord] = []
        self._consumed: list[bool] = []

    def append(self, record: LateRecord) -> None:
        self.records.append(record)
        self._consumed.append(False)

    def __len__(self) -> int:
        return len(self.records)

    def remaining(self) -> int:
        return sum(1 for c in self._consumed if not c)

    @property
    def exhausted(self) -> bool:
        return self.remaining() == 0

    def take_by_id(self, source: int, message_id: int) -> LateRecord | None:
        """Consume the logged late message with this exact identity."""
        for i, rec in enumerate(self.records):
            if not self._consumed[i] and rec.source == source and rec.message_id == message_id:
                self._consumed[i] = True
                return rec
        return None

    def take_matching(self, source: int, tag: int, any_source: int, any_tag: int) -> LateRecord | None:
        """Consume the oldest unconsumed record matching a receive descriptor."""
        for i, rec in enumerate(self.records):
            if self._consumed[i]:
                continue
            if source != any_source and rec.source != source:
                continue
            if tag != any_tag and rec.tag != tag:
                continue
            self._consumed[i] = True
            return rec
        return None

    def rewind(self) -> None:
        self._consumed = [False] * len(self.records)


@dataclass
class EpochLogs:
    """Everything ``finalizeLog`` writes for one checkpoint epoch."""

    epoch: int
    late: LateMessageLog = field(default_factory=LateMessageLog)
    nondet: NondetLog = field(default_factory=NondetLog)
    matches: MatchLog = field(default_factory=MatchLog)
    collectives: CollectiveResultLog = field(default_factory=CollectiveResultLog)

    def all_exhausted(self) -> bool:
        return (
            self.late.exhausted
            and self.nondet.exhausted
            and self.matches.exhausted
            and self.collectives.exhausted
        )

    def rewind(self) -> None:
        self.late.rewind()
        self.nondet.rewind()
        self.matches.rewind()
        self.collectives.rewind()

    def summary(self) -> dict[str, int]:
        return {
            "late": len(self.late),
            "nondet": len(self.nondet),
            "matches": len(self.matches),
            "collectives": len(self.collectives),
        }
