"""Late/early message-log stage (Figure 4's communicationEventHandler).

Applies the per-class actions once the classifier has spoken:

* **early** — record the message ID so a future checkpoint can suppress
  the sender's re-execution resend (Section 4.2 question 3);
* **intra-epoch** — bump the current receive counter; a message from a
  process that has *stopped* logging terminates this process's log
  (phase 4 condition (ii));
* **late** — log the payload (the sender will never resend it) and bump
  the previous-epoch receive counter toward ``receivedAll?``.

While logging, every receive also appends a match record so recovery
replay can reproduce exact receive-completion order.
"""

from __future__ import annotations

import copy

from repro.errors import ProtocolError
from repro.protocol.classify import MessageClass
from repro.protocol.logs import LateRecord, MatchRecord
from repro.protocol.piggyback import PiggybackInfo
from repro.protocol.stages.base import ProtocolStage


class MessageLogStage(ProtocolStage):
    """Record one classified message into the epoch's logs and counters."""

    name = "message-log"

    def co_on_message(self, env, info: PiggybackInfo, mclass: MessageClass):
        core = self.core
        state = core.state
        src = env.source
        if mclass is MessageClass.EARLY:
            if state.am_logging:
                raise ProtocolError(
                    f"rank {core.rank}: early message from {src} while logging"
                )
            state.early_ids.setdefault(src, []).append(info.message_id)
            core.stats.early_recorded += 1
            tr = core.tracer
            if tr is not None:
                tr.emit(
                    "proto", "early_record", rank=core.rank, epoch=state.epoch,
                    source=src, mid=info.message_id,
                )
        elif mclass is MessageClass.INTRA_EPOCH:
            if state.am_logging and not info.am_logging:
                # Phase 4 condition (ii): a message from a process that has
                # stopped logging means every process has checkpointed
                # (logging implies a checkpoint stage).
                yield from core.ckpt.co_finalize_log()
            state.current_receive_count[src] = (
                state.current_receive_count.get(src, 0) + 1
            )
        else:  # LATE
            if not state.am_logging:
                raise ProtocolError(
                    f"rank {core.rank}: late message from {src} after logging ended"
                )
            # The copy protects the log from later mutation by the application.
            core.logs.late.append(
                LateRecord(
                    source=src, tag=env.tag, message_id=info.message_id,
                    payload=copy.deepcopy(env.payload),
                )
            )
            core.stats.late_logged += 1
            tr = core.tracer
            if tr is not None:
                tr.emit(
                    "proto", "late_log", rank=core.rank, epoch=state.epoch,
                    source=src, mid=info.message_id,
                )
            state.previous_receive_count[src] = (
                state.previous_receive_count.get(src, 0) + 1
            )
        if state.am_logging:
            core.logs.matches.append(
                MatchRecord(
                    source=src,
                    tag=env.tag,
                    message_id=info.message_id,
                    was_late=mclass is MessageClass.LATE,
                )
            )
        if mclass is MessageClass.LATE:
            yield from core.ckpt.co_received_all_check()
