"""Checkpoint-controller stage: control plane, initiator, epochs.

Owns everything that makes checkpoints happen (paper Section 4.1):

* the out-of-band control plane on ``TAG_CONTROL``: the rank's mailbox
  control queue, drained by :meth:`co_progress` whenever an operation
  finds it non-empty (or a wave due at the initiator);
* the initiator state machine, embedded in the configured rank's stage;
* ``potentialCheckpoint`` — the local checkpoint at application-chosen
  points, with the epoch-transition bookkeeping of Figure 4;
* the ``mySendCount`` / ``receivedAll?`` / ``finalizeLog`` completion
  mechanism for late messages (Section 4.3).
"""

from __future__ import annotations

import copy

from repro.errors import ProtocolError
from repro.protocol import control as ctl
from repro.protocol.initiator import Initiator
from repro.protocol.logs import EpochLogs
from repro.protocol.stages.base import C3Config, ProtocolStage
from repro.simmpi.constants import TAG_CONTROL
from repro.statesave.format import CheckpointData


class CheckpointStage(ProtocolStage):
    """Drive checkpoint waves and take local checkpoints."""

    name = "checkpoint"

    def __init__(self, config: C3Config) -> None:
        super().__init__(config)
        self.initiator: Initiator | None = None

    def bind(self, core) -> None:
        super().bind(core)
        self._mailbox = core.comm.proc.mailbox
        core._control = self._mailbox.control
        if core.rank == self.config.initiator_rank:
            self.initiator = Initiator(
                nprocs=core.nprocs,
                interval=self.config.checkpoint_interval,
                send_control=core._send_control,
                commit=self._commit,
                now=core.comm.wtime,
                co_send_control=core._co_send_control,
            )
        core.initiator = self.initiator

    # -- control plane --------------------------------------------------- #

    def _commit(self, epoch: int, now: float) -> None:
        core = self.core
        core.storage.commit(epoch, now, nprocs=core.nprocs)
        core.storage.gc(core.nprocs, keep_epoch=epoch)

    def co_progress(self):
        """Drain and handle queued control messages; poll the initiator."""
        core = self.core
        pop_control = self._mailbox.pop_control
        while (env := pop_control()) is not None:
            core.stats.control_messages += 1
            yield from self.co_handle_control(env.payload, env.source)
        if self.initiator is not None:
            yield from self.initiator.co_poll(core.state.epoch)

    def co_handle_control(self, msg: ctl.ControlMessage, source: int):
        core = self.core
        state = core.state
        if isinstance(msg, ctl.PleaseCheckpoint):
            if state.epoch < msg.epoch and state.requested_target < msg.epoch:
                state.checkpoint_requested = True
                state.requested_target = msg.epoch
                tr = core.tracer
                if tr is not None:
                    tr.emit(
                        "ckpt", "wave_request", rank=core.rank, epoch=msg.epoch,
                    )
        elif isinstance(msg, ctl.MySendCount):
            if msg.epoch not in (state.epoch, state.epoch + 1):
                raise ProtocolError(
                    f"rank {core.rank}: mySendCount for epoch {msg.epoch} "
                    f"while in epoch {state.epoch}"
                )
            state.total_sent[msg.sender] = msg.count
            if state.am_logging:
                yield from self.co_received_all_check()
        elif isinstance(msg, ctl.ReadyToStopLogging):
            self._require_initiator("readyToStopLogging")
            yield from self.initiator.co_on_ready(msg.sender, msg.epoch)
        elif isinstance(msg, ctl.StopLogging):
            yield from self.co_finalize_log()
        elif isinstance(msg, ctl.StoppedLogging):
            self._require_initiator("stoppedLogging")
            self.initiator.on_stopped(msg.sender, msg.epoch)
        elif isinstance(msg, ctl.ReplayDone):
            self._require_initiator("replayDone")
            self.initiator.on_replay_done(msg.sender)
        else:
            raise ProtocolError(f"unknown control message {msg!r}")

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
                ctl.ReadyToStopLogging(epoch=state.epoch, sender=core.rank),
                self.config.initiator_rank,
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
            ctl.StoppedLogging(epoch=core.state.epoch, sender=core.rank),
            self.config.initiator_rank,
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
        data = CheckpointData(
            rank=core.rank,
            epoch=state.epoch,
            protocol=snapshot,
            early_ids=saved_early,
            requests=copy.deepcopy(core.requests.snapshot()),
            mpi_records=copy.deepcopy(core.mpi_log),
            handles=core.handles.snapshot(),
            coll_seqs=dict(core.coll_seqs),
            app_state=app_state,
            taken_at=core.comm.wtime(),
        )
        manifest = core.storage.write_state(core.rank, state.epoch, data)
        if manifest is not None:  # custom storages may return nothing
            core.generation_manifests.append(manifest)
            core.stats.ckpt_logical_bytes += manifest.logical_bytes
            core.stats.ckpt_stored_bytes += manifest.stored_bytes
            core.stats.ckpt_chunks_reused += manifest.reused_chunks
        core.stats.checkpoints_taken += 1
        # receivedAll? waits for every peer's count: one absent from the
        # sparse ``send_counts`` was sent nothing and is told 0.  Tokens
        # are frozen values, so peers told the same count share one; none
        # of the peers is this rank, so each goes straight to the wire.
        tokens: dict[int, ctl.MySendCount] = {}
        send = core._comm_send
        for q in state.peers():
            count = send_counts.get(q, 0)
            token = tokens.get(count)
            if token is None:
                token = tokens[count] = ctl.MySendCount(
                    epoch=state.epoch, sender=core.rank, count=count
                )
            yield from send(token, q, TAG_CONTROL)
        state.am_logging = True
        core.logs = EpochLogs(epoch=state.epoch)
        if core.on_checkpoint is not None:
            core.on_checkpoint(data)
        yield from self.co_received_all_check()

    def request_checkpoint_now(self) -> None:
        """Ask the initiator to start a wave at its next poll (tests/API)."""
        if self.initiator is None:
            raise ProtocolError("request_checkpoint_now is initiator-only")
        self.initiator.force_initiate = True
