"""Replay-engine stage: deterministic re-execution after a rollback.

After ``restore_from`` arms the pipeline with the committed epoch's logs,
this stage serves the logged window back to the application: receives are
resolved through the match log (late payloads from the late log,
intra-epoch messages awaited by exact messageID), non-deterministic
decisions and collective results come straight from their logs, and
re-executed sends whose IDs the receiver checkpointed early are
suppressed.  When every log is exhausted the stage reports ``ReplayDone``
to the initiator so the next checkpoint wave may begin.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RecoveryError
from repro.protocol import control as ctl
from repro.protocol.logs import CollectiveRecord, MatchRecord
from repro.protocol.stages.base import ProtocolStage


class ReplayStage(ProtocolStage):
    """Serve receives/nondet/collectives from the logged window."""

    name = "replay"

    # -- send-side suppression ------------------------------------------ #

    def is_suppressed(self, dest: int, message_id: int) -> bool:
        """Early-message resend suppression (Section 4.2 question 3)."""
        return message_id in self.core.suppress.get(dest, ())

    # -- receive path --------------------------------------------------- #

    def co_serve_recv(self):
        """Serve one receive deterministically from the match log."""
        core = self.core
        assert core.replay is not None
        rec: MatchRecord = core.replay.matches.next()
        core.stats.replayed_matches += 1
        if rec.was_late:
            late = core.replay.late.take_by_id(rec.source, rec.message_id)
            if late is None:
                raise RecoveryError(
                    f"rank {core.rank}: match log names late message "
                    f"({rec.source}, {rec.message_id}) absent from late log"
                )
            core.stats.replayed_late += 1
            yield from self.co_maybe_end_replay()
            return late.payload
        # Intra-epoch message: the sender is re-executing deterministically
        # and will re-post it with the same messageID; wait for exactly it.
        wanted_id = rec.message_id

        def _matches(env) -> bool:
            if env.piggyback is None:
                return False
            info = core.codec.decode(env.piggyback, core.state.epoch)
            return info.message_id == wanted_id

        env = yield from core._comm_recv_envelope(rec.source, rec.tag, _matches)
        core.state.current_receive_count[rec.source] = (
            core.state.current_receive_count.get(rec.source, 0) + 1
        )
        yield from self.co_maybe_end_replay()
        return env.payload

    # -- nondet / collectives ------------------------------------------- #

    def co_serve_nondet(self):
        core = self.core
        value = core.replay.nondet.next()
        core.stats.replayed_nondet += 1
        yield from self.co_maybe_end_replay()
        return value

    def serve_collective(self, kind: str) -> Any:
        core = self.core
        rec: CollectiveRecord = core.replay.collectives.next()
        if rec.kind != kind:
            raise RecoveryError(
                f"rank {core.rank}: replaying {kind} but log has {rec.kind}"
            )
        core.stats.replayed_collectives += 1
        return rec.result

    # -- lifecycle ------------------------------------------------------- #

    def co_maybe_end_replay(self):
        core = self.core
        if core.replay is None or core._replay_done_sent:
            return
        if core.replay.all_exhausted():
            core._replay_done_sent = True
            core.replay = None
            tr = core.tracer
            if tr is not None:
                tr.emit(
                    "proto", "replay_end", rank=core.rank, epoch=core.state.epoch,
                    replayed_matches=core.stats.replayed_matches,
                    replayed_nondet=core.stats.replayed_nondet,
                    replayed_collectives=core.stats.replayed_collectives,
                )
            yield from core._co_send_control(
                ctl.ReplayDone(epoch=core.state.epoch, sender=core.rank),
                self.config.initiator_rank,
            )
