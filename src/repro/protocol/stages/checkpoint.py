"""The checkpoint stage: control plane, initiator, epochs.

The one protocol concern that is an object rather than pipeline code: the
pipeline builds it when it is handed a storage (V2/V3) and counts its work
under ``checkpoint``.  It owns everything that makes checkpoints happen
(paper Section 4.1):

* the out-of-band control plane on ``TAG_CONTROL``: the rank's mailbox
  control queue, drained by :meth:`co_progress` whenever an operation
  finds it non-empty (or a wave due at the initiator);
* the initiator state machine, embedded in ``INITIATOR_RANK``'s stage;
* ``potentialCheckpoint`` — the local checkpoint at application-chosen
  points, with the epoch-transition bookkeeping of Figure 4;
* the ``mySendCount`` / ``receivedAll?`` / ``finalizeLog`` completion
  mechanism for late messages (Section 4.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.protocol import control as ctl
from repro.protocol.initiator import Initiator
from repro.protocol.logs import EpochLogs
from repro.protocol.stages.base import INITIATOR_RANK
from repro.simmpi.constants import TAG_CONTROL
from repro.statesave.format import CheckpointData

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.stages.pipeline import ProtocolPipeline


class CheckpointStage:
    """Drive checkpoint waves and take local checkpoints for one pipeline
    (``core``), which builds it exactly when it is handed a storage."""

    def __init__(self, core: ProtocolPipeline) -> None:
        self.core = core
        self.config = core.config
        self._mailbox = core.comm.proc.mailbox
        core._control = self._mailbox.control
        self.initiator: Initiator | None = None
        if core.rank == INITIATOR_RANK:
            self.initiator = Initiator(
                nprocs=core.nprocs,
                interval=self.config.checkpoint_interval,
                co_send_control=core._co_send_control,
                commit=self._commit,
                now=core.comm.wtime,
            )
        core.initiator = self.initiator

    # -- control plane --------------------------------------------------- #

    def _commit(self, epoch: int, now: float) -> None:
        core = self.core
        core.storage.commit(epoch, now, nprocs=core.nprocs)
        core.storage.gc(keep_epoch=epoch)

    def co_progress(self):
        """Drain and handle queued control messages; poll the initiator."""
        core = self.core
        pop_control = self._mailbox.pop_control
        while (env := pop_control()) is not None:
            core.stats.control_messages += 1
            yield from self.co_handle_control(env.payload, env.source)
        if self.initiator is not None:
            yield from self.initiator.co_poll(core.state.epoch)

    def co_handle_control(self, word: int, source: int):
        """Handle one control word (:mod:`repro.protocol.control`) sent by
        rank ``source``."""
        core = self.core
        state = core.state
        kind, epoch, count = ctl.unpack_control(word)
        if kind == ctl.PLEASE_CHECKPOINT:
            if state.epoch < epoch and state.requested_target < epoch:
                state.checkpoint_requested = True
                state.requested_target = epoch
                tr = core.tracer
                if tr is not None:
                    tr.emit(
                        "ckpt", "wave_request", rank=core.rank, epoch=epoch,
                    )
        elif kind == ctl.MY_SEND_COUNT:
            if epoch not in (state.epoch, state.epoch + 1):
                raise ProtocolError(
                    f"rank {core.rank}: mySendCount for epoch {epoch} "
                    f"while in epoch {state.epoch}"
                )
            state.total_sent[source] = count
            if state.am_logging:
                yield from self.co_received_all_check()
        elif kind == ctl.READY_TO_STOP_LOGGING:
            self._require_initiator("readyToStopLogging")
            yield from self.initiator.co_on_ready(source, epoch)
        elif kind == ctl.STOP_LOGGING:
            yield from self.co_finalize_log()
        elif kind == ctl.STOPPED_LOGGING:
            self._require_initiator("stoppedLogging")
            self.initiator.on_stopped(source, epoch)
        elif kind == ctl.REPLAY_DONE:
            self._require_initiator("replayDone")
            self.initiator.on_replay_done(source)
        else:
            raise ProtocolError(f"unknown control kind {kind} in word {word:#x}")

    def _require_initiator(self, what: str) -> None:
        if self.initiator is None:
            raise ProtocolError(
                f"rank {self.core.rank} received initiator-only control {what!r}"
            )

    # -- receivedAll? / finalizeLog (Figure 4) --------------------------- #

    def co_received_all_check(self):
        core = self.core
        state = core.state
        if state.ready_sent or not state.am_logging:
            return
        if state.all_late_received():
            state.ready_sent = True
            state.reset_total_sent()
            yield from core._co_send_control(
                ctl.pack_control(ctl.READY_TO_STOP_LOGGING, state.epoch),
                INITIATOR_RANK,
            )

    def co_finalize_log(self):
        core = self.core
        if not core.state.am_logging:
            return
        core.state.am_logging = False
        core.stats.log_finalizations += 1
        tr = core.tracer
        if tr is not None:
            tr.emit(
                "ckpt", "finalize_log", rank=core.rank, epoch=core.state.epoch,
                late=len(core.logs.late), matches=len(core.logs.matches),
            )
        core.storage.write_log(core.rank, core.state.epoch, core.logs)
        yield from core._co_send_control(
            ctl.pack_control(ctl.STOPPED_LOGGING, core.state.epoch),
            INITIATOR_RANK,
        )

    # -- potentialCheckpoint (Figure 4) ---------------------------------- #

    def co_potential_checkpoint(self):
        """Take a local checkpoint if one has been requested.

        Checkpointing is deferred while a recovery replay is in progress
        (the initiator never starts a wave during replay, so this can only
        trigger in exotic interleavings and is safe to postpone).
        """
        core = self.core
        if core.replay is not None:
            return False
        if not core.state.checkpoint_requested:
            return False
        yield from self.co_take_local_checkpoint()
        return True

    def co_take_local_checkpoint(self):
        core = self.core
        state = core.state
        saved_early = {q: list(ids) for q, ids in state.early_ids.items() if ids}
        send_counts = state.epoch_transition()
        tr = core.tracer
        if tr is not None:
            tr.emit("ckpt", "local_checkpoint", rank=core.rank, epoch=state.epoch)
        # Suppression sets apply only to re-executions of the *previous*
        # epoch's sends; entering a new epoch invalidates them.
        core.suppress = {}
        snapshot = state.snapshot_for_checkpoint()
        app_state = None
        if self.config.save_app_state and core.state_provider is not None:
            app_state = core.state_provider()
        # No copies: ``write_state`` pickles ``data`` before it returns and
        # keeps no reference to it, so the pickle is the copy.
        data = CheckpointData(
            rank=core.rank,
            epoch=state.epoch,
            protocol=snapshot,
            early_ids=saved_early,
            requests=core.requests.snapshot(),
            mpi_records=core.objects.log,
            handles=core.objects.handles.snapshot(),
            coll_seqs=dict(core.coll_seqs),
            app_state=app_state,
            taken_at=core.comm.wtime(),
        )
        storage = core.storage
        # The store's counter, not the manifest: its chunks hold the stream
        # deflated, and logical bytes are what a flat pickle store writes.
        logical = storage.logical_bytes
        manifest = storage.write_state(core.rank, state.epoch, data)
        core.stats.ckpt_logical_bytes += storage.logical_bytes - logical
        core.stats.ckpt_stored_bytes += manifest.stored_bytes
        core.stats.ckpt_chunks_reused += manifest.reused_chunks
        core.stats.checkpoints_taken += 1
        # receivedAll? waits for every peer's count: one absent from the
        # sparse ``send_counts`` was sent nothing and is told 0.  None of
        # the peers is this rank, so each word goes straight to the wire.
        send = core._comm_send
        for q in state.peers():
            word = ctl.pack_control(ctl.MY_SEND_COUNT, state.epoch, send_counts.get(q, 0))
            yield from send(word, q, TAG_CONTROL)
        state.am_logging = True
        core.logs = EpochLogs(epoch=state.epoch)
        yield from self.co_received_all_check()
