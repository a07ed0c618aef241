"""The protocol pipeline: the C3 layer behind the ``CommLike`` surface.

:class:`ProtocolPipeline` is the per-process C3 protocol layer: it sits
between the application and the (simulated) MPI library and intercepts
every communication call (the paper's Figure 2).  It owns the shared
protocol state (Figure 4's variables, the epoch logs, pseudo-handle
tables, per-communicator collective sequence numbers) and runs Figure 4's
communicationEventHandler as six counted concerns (the table in
:mod:`repro.protocol.stages.base`): five are pipeline code, and the
sixth, ``checkpoint``, is the optional part and the one object
(:class:`~repro.protocol.stages.checkpoint.CheckpointStage`).  It
implements variants V1–V3 of Section 6.2:

* built without a storage, the pipeline runs the five protocol concerns
  but has no checkpoint stage, so no wave ever starts — V1;
* handed a storage, it builds the checkpoint stage — V2/V3.

V0, the unmodified program, is not a pipeline: it is
:class:`repro.api.comms.RawCommAdapter`.  Persistent MPI objects (Section
5.2) are :class:`repro.protocol.mpi_state.PersistentObjects`; the
pipeline's constructors delegate to it.

Every pass through a concern is counted into ``LayerStats.stage_calls``
under the concern's name (exact, and pinned per run by the golden-facts
suite).  Counting reads no host clock: a clock read costs more than most
concerns, and a timer around one that suspends would charge it with other
ranks' slices.
Durations come from a profiler or from ``repro.trace`` events.

One deliberate refinement over the paper's prose: the collective logging
rule exchanges ``(epoch, amLogging)``, packed into one ``int`` as
``epoch << 1 | amLogging``, rather than ``amLogging`` alone.  A bare
conjunction cannot distinguish Figure 5's call A (a participant that
has *not yet checkpointed* — result must be logged) from call B (a
participant that *finished* logging — logging must stop).  Classifying each
participant's contribution with the same late/intra/early rule as
point-to-point messages resolves both cases.  Point-to-point messages
carry only the epoch's color bit (:mod:`repro.util.intpack`'s piggyback
word), and the color rule is the same reasoning with the exact epoch
folded to one bit.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Optional

from repro.errors import PiggybackError, ProtocolError, RecoveryError
from repro.protocol import control as ctl
from repro.protocol.logs import CollectiveRecord, EpochLogs, LateRecord, MatchRecord
from repro.protocol.mpi_state import WORLD_HANDLE, PersistentObjects
from repro.protocol.pseudo_handles import PseudoHandle, RequestTable
from repro.protocol.stages.base import INITIATOR_RANK, C3Config, LayerStats, SharedSurface
from repro.protocol.stages.checkpoint import CheckpointStage
from repro.protocol.state import ProtocolState
from repro.simmpi import collectives_impl as coll_impl
from repro.simmpi.collectives_impl import _TAG_STRIDE
from repro.simmpi.comm import Comm
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, TAG_CONTROL
from repro.statesave.format import CheckpointData
from repro.util.intpack import COLOR_BIT, LOGGING_BIT, MAX_MESSAGE_ID

#: Base of the tag region used by pipeline-level collective instances.  Raw
#: communicator collectives use the -1000 region; keeping the pipeline in
#: its own region means a V0 (uninstrumented) app and the pipeline can
#: never clash.
LAYER_COLL_BASE = -10_000_000

#: Tag block used by the one-shot suppression exchange at restart.
RESTORE_BASE = -1_000_000_000

#: ``_stamp``'s answer for a send that replay suppresses (any wire word,
#: ``None`` included, means "post it"); ``co_send``'s for one not stamped yet.
_SUPPRESSED = object()
_UNSTAMPED = object()


class ProtocolPipeline(SharedSurface):
    """Per-process protocol engine: shared state and Figure 4's handler.

    The five protocol concerns are always present; ``storage`` (the
    checkpoint stage is its only reader) adds the ``checkpoint`` stage.
    """

    def __init__(
        self,
        comm: Comm,
        config: Optional[C3Config] = None,
        storage: Any = None,
        state_provider: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.comm = comm
        self.config = config if config is not None else C3Config()
        self.storage = storage
        self.state_provider = state_provider
        self.rank = comm.rank
        self.nprocs = comm.size
        # The communicator's operations, bound once.
        self._comm_send = comm.co_send
        self._comm_recv_envelope = comm.co_recv_envelope
        self._recv_begin = comm.recv_begin
        self._recv_end = comm.recv_end
        self._comm_yield_point = comm.co_yield_point
        #: This rank's mailbox control queue; bound by the checkpoint
        #: stage (the only consumer), empty forever without one.
        self._control: Any = ()
        #: The simulator's repro.trace recorder, when armed (None otherwise;
        #: every emit site below guards on that, so tracing off costs one
        #: attribute read per traced operation).
        self.tracer = getattr(getattr(comm, "sim", None), "tracer", None)
        self.state = ProtocolState(rank=self.rank, nprocs=self.nprocs)
        self.logs = EpochLogs(epoch=0)
        self.replay: Optional[EpochLogs] = None
        self._replay_done_sent = False
        self.suppress: dict[int, set[int]] = {}
        self.requests = RequestTable()
        #: Persistent MPI objects (Section 5.2) behind pseudo-handles.
        self.objects = PersistentObjects(comm)
        self._raw_comm = self.objects.raw_comm
        #: Per-communicator collective call sequence (world = WORLD_HANDLE).
        self.coll_seqs: dict[int, int] = {WORLD_HANDLE: 0}
        self.stats = LayerStats()
        #: Set by the checkpoint stage when it is built (initiator rank only).
        self.initiator = None
        concerns = ("piggyback", "classifier", "message-log", "result-log", "replay")
        if storage is not None:
            concerns += ("checkpoint",)
        #: ``stats.stage_calls``, bound once: a concern counts itself with
        #: one item increment after it returns.
        self._calls = self.stats.stage_calls = dict.fromkeys(concerns, 0)
        self.ckpt = CheckpointStage(self) if storage is not None else None

    # ------------------------------------------------------------------ #
    # Control plane (shared by the checkpoint stage and replay).
    #
    # Every CommLike operation that can suspend exists once, as a ``co_*``
    # generator whose yields are its scheduling points; the calls that
    # never suspend (``comm_dup``, ``op_create``, ``comm_rank`` ...) are
    # plain methods.
    # ------------------------------------------------------------------ #

    def _co_send_control(self, word: int, dest: int):
        """Send one control word; only the checkpoint stage, its
        initiator and a replay armed by :meth:`co_restore_from` (which
        needs the checkpoint stage) send any."""
        if dest == self.rank:
            yield from self.ckpt.co_handle_control(word, self.rank)
        else:
            yield from self._comm_send(word, dest, TAG_CONTROL)

    def _idle(self) -> bool:
        """The idle rule, tested before an operation builds the progress
        generator chain: no control message queued and no wave due means
        the checkpoint stage's poll is counted and nothing else happens."""
        if self._control:
            return False
        initiator = self.initiator
        if initiator is not None and initiator.wave_due():
            return False
        if self.ckpt is not None:
            self._calls["checkpoint"] += 1
        return True

    def _co_progress(self):
        """Drain control traffic, poll the initiator (when not :meth:`_idle`)."""
        yield from self.ckpt.co_progress()
        self._calls["checkpoint"] += 1

    # ------------------------------------------------------------------ #
    # Send path.
    # ------------------------------------------------------------------ #

    def _stamp(self, dest: int) -> Any:
        """Account one send and build its piggyback word (the layout in
        :mod:`repro.util.intpack`): message ID, resend suppression, trace.
        Returns the word, or ``_SUPPRESSED`` for a send not to post.
        A message ID past 30 bits is refused before anything is counted."""
        state = self.state
        if state.next_message_id > MAX_MESSAGE_ID:
            raise PiggybackError(
                f"messageID {state.next_message_id} outside 30-bit range "
                f"[0, {MAX_MESSAGE_ID}]"
            )
        self.stats.sends += 1
        message_id = state.note_send(dest)
        tr = self.tracer
        # ``suppress`` is non-empty only after a restore armed replay with
        # the receivers' early IDs.
        if self.suppress and message_id in self.suppress.get(dest, ()):
            # Early-message resend suppression (Section 4.2 question 3):
            # the receiver's checkpoint already contains this message, so it
            # must not be re-posted; bookkeeping still advances so that
            # subsequent IDs and the next wave's counts line up.
            self.stats.suppressed_sends += 1
            if tr is not None:
                tr.emit(
                    "proto", "suppress_send", rank=self.rank,
                    epoch=state.epoch, dest=dest, mid=message_id,
                )
            return _SUPPRESSED
        if tr is not None:
            tr.emit(
                "proto", "send", rank=self.rank, epoch=state.epoch,
                dest=dest, mid=message_id, logging=state.am_logging,
            )
        self._calls["piggyback"] += 1
        word = message_id
        if state.epoch & 1:
            word |= COLOR_BIT
        if state.am_logging:
            word |= LOGGING_BIT
        return word

    def co_send(self, payload: Any, dest: int, tag: int = 0):
        """Application blocking send with piggybacked protocol data.

        Idle, it stamps the send and hands back ``Comm.co_send``'s
        generator itself (one generator per send, as the collectives do).
        """
        wire = self._stamp(dest) if self._idle() else _UNSTAMPED
        if wire is _UNSTAMPED or wire is _SUPPRESSED:
            return self._co_send_rest(payload, dest, tag, wire)
        return self._comm_send(payload, dest, tag, wire)

    def _co_send_rest(self, payload: Any, dest: int, tag: int, wire: Any):
        """A send that found work to drain first, or that replay suppresses."""
        if wire is _UNSTAMPED:
            yield from self._co_progress()
            wire = self._stamp(dest)
        if wire is not _SUPPRESSED:
            yield from self._comm_send(payload, dest, tag, wire)

    def co_isend(self, payload: Any, dest: int, tag: int = 0):
        """Nonblocking send; returns a pseudo-request (Section 5.2).

        The underlying isend never suspends (eager sends); the scheduling
        points here are the progress drain only.
        """
        if not self._idle():
            yield from self._co_progress()
        wire = self._stamp(dest)
        req = self.requests.new("isend", dest=dest, tag=tag)
        if wire is not _SUPPRESSED:
            self.comm.isend(payload, dest, tag, piggyback=wire)
        return req

    # ------------------------------------------------------------------ #
    # Receive path.
    # ------------------------------------------------------------------ #

    def co_recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Application blocking receive."""
        if not self._idle():
            yield from self._co_progress()
        self.stats.receives += 1
        if self.replay is not None and not self.replay.matches.exhausted:
            return (yield from self._co_replay_recv(source, tag))
        # ``Comm.co_recv_envelope``'s two halves around its scheduling
        # point, run in this generator.
        desc = self._recv_begin(source, tag)
        yield
        env = self._recv_end(desc)
        rest = self._classify_and_deliver(env)
        if rest is not None:
            yield from rest
        return env.payload

    def co_irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Nonblocking receive pseudo-request.

        Posting the receive never suspends; only the progress drain does.
        """
        if not self._idle():
            yield from self._co_progress()
        req = self.requests.new("irecv", source=source, tag=tag)
        if self.replay is not None:
            # During replay, completion is resolved through the match log at
            # wait time; posting a raw receive could steal messages that the
            # replay engine must route by messageID.
            return req
        req._live = self.comm.irecv(source, tag)
        return req

    def co_wait(self, req: Any):
        """Complete a pseudo-request (the MPI_Wait analogue)."""
        if not self._idle():
            yield from self._co_progress()
        if req.consumed:
            raise ProtocolError("wait() on an already-completed pseudo-request")
        if req.kind == "isend":
            # Paper rule: a restored (or live, under the eager model) isend
            # request completes immediately — the message is in the
            # receiver's checkpoint or its late-message log.
            self.requests.retire(req)
            yield from self._comm_yield_point()
            return None
        # irecv:
        if req.has_payload:
            payload = req.payload
            self.requests.retire(req)
            return payload
        self.stats.receives += 1
        if req._live is not None:
            yield from req._live.co_wait()
            env = req._live._desc.matched
        elif self.replay is not None and not self.replay.matches.exhausted:
            # Restored-unmatched or replay-posted: resolve like a fresh recv
            # (paper rule: match the late log, else re-post the receive).
            payload = yield from self._co_replay_recv(req.source, req.tag)
            self.requests.retire(req)
            return payload
        else:
            env = yield from self._comm_recv_envelope(req.source, req.tag)
        self.requests.retire(req)
        rest = self._classify_and_deliver(env)
        if rest is not None:
            yield from rest
        return env.payload

    def co_test(self, req: Any):
        """Nonblocking completion check for a pseudo-request."""
        if not self._idle():
            yield from self._co_progress()
        if req.kind == "isend" or req.has_payload:
            return True
        if req._live is None:
            if self.replay is not None and not self.replay.matches.exhausted:
                return True  # co_wait serves it from the match log
            # Restored or replay-posted, and replay serves no more
            # receives: post the live receive (co_wait receives live too).
            req._live = self.comm.irecv(req.source, req.tag)
        return req._live.test()

    def co_sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int | None = None,
    ):
        """Combined exchange built from the pipeline's own send + recv."""
        if recv_tag is None:
            recv_tag = send_tag
        yield from self.co_send(payload, dest, send_tag)
        return (yield from self.co_recv(recv_source, recv_tag))

    # ------------------------------------------------------------------ #

    def _classify_and_deliver(self, env):
        """Figure 4's communicationEventHandler for one arrived message:
        read the piggyback word, classify the message (Definition 1 by
        Section 4.2's color rule: the sender's color equal to this rank's
        is intra-epoch; a different one is late while this rank logs and
        early otherwise), apply its class's action and, while logging,
        append a match record so replay can reproduce the exact
        receive-completion order.

        A plain call: a message whose handling must suspend (an
        intra-epoch one that ends logging, a late one) returns the
        generator that finishes it, for the caller to run; any other
        returns None."""
        state = self.state
        word = env.piggyback
        message_id = word & MAX_MESSAGE_ID
        self._calls["piggyback"] += 1
        if (word & COLOR_BIT) == (state.epoch & 1) * COLOR_BIT:
            cls = "intra_epoch"
        elif state.am_logging:
            cls = "late"
        else:
            cls = "early"
        self._calls["classifier"] += 1
        src = env.source
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "proto", "classify", rank=self.rank, epoch=state.epoch,
                source=src, cls=cls, mid=message_id,
            )
        if cls == "early":
            # Record the ID so a checkpoint can suppress the sender's
            # re-execution resend (Section 4.2 question 3).
            state.early_ids.setdefault(src, []).append(message_id)
            self.stats.early_recorded += 1
            if tr is not None:
                tr.emit(
                    "proto", "early_record", rank=self.rank, epoch=state.epoch,
                    source=src, mid=message_id,
                )
        elif cls == "intra_epoch":
            state.current_receive_count[src] = (
                state.current_receive_count.get(src, 0) + 1
            )
            if state.am_logging and not (word & LOGGING_BIT):
                # Phase 4 condition (ii): a message from a process that has
                # stopped logging means every process has checkpointed
                # (logging implies a checkpoint stage).  Finalizing ends
                # logging, so no match record follows.
                return self._co_then_count(self.ckpt.co_finalize_log())
        else:  # late
            # Log the payload: the sender will never resend it.  The copy
            # protects the log from later mutation by the application.
            self.logs.late.append(
                LateRecord(
                    source=src, tag=env.tag, message_id=message_id,
                    payload=copy.deepcopy(env.payload),
                )
            )
            self.stats.late_logged += 1
            if tr is not None:
                tr.emit(
                    "proto", "late_log", rank=self.rank, epoch=state.epoch,
                    source=src, mid=message_id,
                )
            state.previous_receive_count[src] = (
                state.previous_receive_count.get(src, 0) + 1
            )
        if state.am_logging:
            self.logs.matches.append(
                MatchRecord(
                    source=src, tag=env.tag, message_id=message_id,
                    was_late=cls == "late",
                )
            )
        if cls == "late":
            return self._co_then_count(self.ckpt.co_received_all_check())
        self._calls["message-log"] += 1
        return None

    def _co_then_count(self, step):
        """The end of a message's handling that suspends: ``step``, then the
        message-log count."""
        yield from step
        self._calls["message-log"] += 1

    def _co_replay_recv(self, source: int, tag: int):
        """Serve one receive deterministically from the match log: a late
        message from the late log, an intra-epoch one awaited by its exact
        messageID (the re-executing sender re-posts it).  A non-wildcard
        ``source``/``tag`` that differs from the record is a divergence."""
        replay = self.replay
        rec: MatchRecord = replay.matches.next()
        if (source != ANY_SOURCE and source != rec.source) or (
            tag != ANY_TAG and tag != rec.tag
        ):
            raise RecoveryError(
                f"rank {self.rank}: replay diverged: receive for ({source}, {tag}), "
                f"match log holds ({rec.source}, {rec.tag})"
            )
        self.stats.replayed_matches += 1
        if rec.was_late:
            late = replay.late.take_by_id(rec.source, rec.message_id)
            if late is None:
                raise RecoveryError(
                    f"rank {self.rank}: match log names late message "
                    f"({rec.source}, {rec.message_id}) absent from late log"
                )
            self.stats.replayed_late += 1
            payload = late.payload
        else:
            wanted_id = rec.message_id

            def _matches(env) -> bool:
                word = env.piggyback
                return word is not None and (word & MAX_MESSAGE_ID) == wanted_id

            env = yield from self._comm_recv_envelope(rec.source, rec.tag, _matches)
            counts = self.state.current_receive_count
            counts[rec.source] = counts.get(rec.source, 0) + 1
            payload = env.payload
        yield from self._co_maybe_end_replay()
        self._calls["replay"] += 1
        return payload

    def _co_maybe_end_replay(self):
        """Once every log of the replayed window is exhausted, leave replay
        and report ``replayDone`` so the initiator may start the next wave."""
        if self.replay is None or self._replay_done_sent:
            return
        if self.replay.all_exhausted():
            self._replay_done_sent = True
            self.replay = None
            stats = self.stats
            tr = self.tracer
            if tr is not None:
                tr.emit(
                    "proto", "replay_end", rank=self.rank, epoch=self.state.epoch,
                    replayed_matches=stats.replayed_matches,
                    replayed_nondet=stats.replayed_nondet,
                    replayed_collectives=stats.replayed_collectives,
                )
            yield from self._co_send_control(
                ctl.pack_control(ctl.REPLAY_DONE, self.state.epoch), INITIATOR_RANK
            )

    # ------------------------------------------------------------------ #
    # Non-determinism (Section 3.2 / Figure 4 phase 2).
    # ------------------------------------------------------------------ #

    def co_nondet(self, compute: Callable[[], Any]):
        """Execute a non-deterministic decision under protocol control.

        While logging, the result is recorded; during recovery replay, the
        recorded result is returned instead of re-computing, so the replayed
        execution is identical to the one peers' checkpoints observed.
        """
        if not self._idle():
            yield from self._co_progress()
        if self.replay is not None and not self.replay.nondet.exhausted:
            value = self.replay.nondet.next()
            self.stats.replayed_nondet += 1
            yield from self._co_maybe_end_replay()
            self._calls["replay"] += 1
            return value
        value = compute()
        if self.state.am_logging:
            # Logged values are deep copies: the application may mutate its own.
            self.logs.nondet.append(copy.deepcopy(value))
            self.stats.nondet_logged += 1
            self._calls["result-log"] += 1
        return value

    # ------------------------------------------------------------------ #
    # Collectives (Section 4.5).
    # ------------------------------------------------------------------ #

    def _coll_base(self, handle_id: int) -> int:
        """The tag base of this call's command exchange (phase 0); its data
        collective or barrier (phase 1) runs one block below.

        Not the raw communicator's own counter: replay-served collectives
        perform no raw communication, so raw counters would drift apart
        between ranks.  The checkpointed per-communicator sequence does not.
        """
        seq = self.coll_seqs.get(handle_id, 0)
        return LAYER_COLL_BASE - 2 * seq * _TAG_STRIDE

    def _advance_coll_seq(self, handle_id: int) -> None:
        self.coll_seqs[handle_id] = self.coll_seqs.get(handle_id, 0) + 1

    def _command_word(self) -> int:
        """This rank's entry in a command exchange: ``epoch << 1 | amLogging``,
        one 32-bit word (an epoch past 2**31 - 1 raises ``ProtocolError``)."""
        return self.state.epoch << 1 | self.state.am_logging

    def _co_coll(self, kind: str, comm: Optional[PseudoHandle], *args: Any):
        """Shared machinery for every collective call but barrier.

        Runs ``coll_impl.co_<kind>(raw comm, base, *args)`` in the
        pipeline's own tag region, or serves the result from the replay log.
        """
        if not self._idle():
            yield from self._co_progress()
        self.stats.collectives += 1
        handle_id = comm.handle_id if comm is not None else WORLD_HANDLE
        if self.replay is not None and not self.replay.collectives.exhausted:
            rec: CollectiveRecord = self.replay.collectives.next()
            if rec.kind != kind:
                raise RecoveryError(
                    f"rank {self.rank}: replaying {kind} but log has {rec.kind}"
                )
            self.stats.replayed_collectives += 1
            self._calls["replay"] += 1
            self._advance_coll_seq(handle_id)
            yield from self._co_maybe_end_replay()
            return rec.result
        # Command exchange before the data call (paper: "each data
        # MPI_Allgather is preceded by a command MPI_Allgather which sends
        # around the relevant control information"): one 32-bit command
        # word per rank, in the data allgather's round loop, each block
        # packed bytes (4 B a word) where a data block is a list of values.
        raw, base = self._raw_comm(handle_id), self._coll_base(handle_id)
        peer_info = yield from coll_impl.co_allgather_words(raw, base, self._command_word())
        result = yield from getattr(coll_impl, "co_" + kind)(raw, base - _TAG_STRIDE, *args)
        self._advance_coll_seq(handle_id)
        if self.state.am_logging:
            my_epoch, me = self.state.epoch, raw.rank
            ended = any(
                word >> 1 == my_epoch and not word & 1
                for i, word in enumerate(peer_info)
                if i != me
            )
            if ended:
                # A same-epoch participant has stopped logging: logging has
                # globally terminated; do not record the result.
                yield from self.ckpt.co_finalize_log()
            else:
                self.logs.collectives.append(
                    CollectiveRecord(kind=kind, result=copy.deepcopy(result))
                )
                self.stats.collective_results_logged += 1
                self._calls["result-log"] += 1
        return result

    def co_barrier(self, comm: Any = None):
        """MPI_Barrier with the paper's epoch-alignment rule (Section 4.5).

        "All processes involved in the barrier execute an all-to-all
        communication just before the barrier to determine if they are all
        in the same epoch.  If not, processes that have not yet taken their
        local checkpoints do so."  That exchange carries the command word,
        so it is the barrier's one control exchange.  A barrier is neither
        served from the result log nor recorded: every participant
        re-executes it after a restart (the alignment rule guarantees it).
        """
        if not self._idle():
            yield from self._co_progress()
        self.stats.collectives += 1
        handle_id = comm.handle_id if comm is not None else WORLD_HANDLE
        # A re-executed barrier during replay re-runs the exchange so tags
        # stay aligned, but alignment already held in the original execution.
        raw, base = self._raw_comm(handle_id), self._coll_base(handle_id)
        words = yield from coll_impl.co_allgather_words(raw, base, self._command_word())
        if (
            self.replay is None
            and self.state.epoch < max(words) >> 1
            and self.ckpt is not None
        ):
            # The forced local checkpoint happens BEFORE this barrier's
            # collective-sequence advance: the checkpoint's resume point
            # re-executes the whole barrier call (the paper's inserted
            # potentialCheckpoint-before-barrier), so its snapshot must
            # not count the alignment exchange the re-execution will
            # perform again.
            yield from self.ckpt.co_take_local_checkpoint()
            self._calls["checkpoint"] += 1
        yield from coll_impl.co_barrier(raw, base - _TAG_STRIDE)
        self._advance_coll_seq(handle_id)

    # ------------------------------------------------------------------ #
    # potentialCheckpoint (Figure 4).
    # ------------------------------------------------------------------ #

    def co_potential_checkpoint(self):
        """Take a local checkpoint if one has been requested.

        Returns True if a checkpoint was taken; always False on a pipeline
        without a checkpoint stage.
        """
        if not self._idle():
            yield from self._co_progress()
        if self.ckpt is None:
            return False
        taken = yield from self.ckpt.co_potential_checkpoint()
        self._calls["checkpoint"] += 1
        return taken

    def request_checkpoint_now(self) -> None:
        """Ask the initiator to start a wave at its next poll (tests/API)."""
        if self.initiator is None:
            raise ProtocolError(
                "request_checkpoint_now needs a checkpoint stage (initiator-only)"
            )
        self.initiator.force_initiate = True

    # ------------------------------------------------------------------ #
    # Persistent MPI objects (Section 5.2): delegations to ``objects``.
    # ------------------------------------------------------------------ #

    def _new_comm(self, handle: Optional[PseudoHandle]) -> Optional[PseudoHandle]:
        """A communicator handle starts its collective sequence at 0 (a
        restored one keeps its checkpointed sequence)."""
        if handle is not None:
            self.coll_seqs.setdefault(handle.handle_id, 0)
        return handle

    def comm_dup(self, parent: Any = None) -> Any:
        """Duplicate a communicator behind a pseudo-handle."""
        return self._new_comm(self.objects.comm_dup(parent))

    def co_comm_split(self, color: int, key: int | None = None, parent: Any = None):
        """Split a communicator behind a pseudo-handle (collective)."""
        return self._new_comm((yield from self.objects.co_comm_split(color, key, parent)))

    def op_create(self, name: str, fn: Callable[[Any, Any], Any]) -> Any:
        """Create a user-defined reduction op behind a pseudo-handle.

        ``fn`` must be stable under ``name``: the call record replays
        ``Op.create(name, fn)`` by looking the op up at restore, so the
        application must re-register the op before restore (module import
        time is the natural place).
        """
        return self.objects.op_create(name, fn)

    def attach_buffer(self, nbytes: int) -> None:
        """Record a direct library state change (MPI_Attach_buffer analogue)."""
        self.objects.attach_buffer(nbytes)

    def _comm_of(self, handle: Optional[PseudoHandle]) -> Comm:
        return self._raw_comm(handle.handle_id if handle else WORLD_HANDLE)

    # ------------------------------------------------------------------ #
    # Recovery (restart from a committed checkpoint).
    # ------------------------------------------------------------------ #

    def co_restore_from(self, data: CheckpointData, logs: EpochLogs):
        """Reinitialise this pipeline from a committed local checkpoint.

        Must be run by *every* rank of the job at restart, before any
        application re-execution: it performs a collective suppression
        exchange (each receiver tells each sender which early-message IDs to
        suppress; one Bruck alltoall, ceil(log2(n)) messages per rank) and
        arms the deterministic replay engine.

        Consumes ``data`` and ``logs``: both are kept and mutated uncopied (the
        driver hands over what it just unpickled, a graph nobody else holds).
        """
        if self.ckpt is None:
            raise RecoveryError(
                f"rank {self.rank}: restore_from on a pipeline without a "
                "checkpoint stage"
            )
        if data.rank != self.rank:
            raise RecoveryError(
                f"rank {self.rank} handed checkpoint of rank {data.rank}"
            )
        self.state = data.protocol
        self.coll_seqs = data.coll_seqs
        yield from self.objects.co_restore(data.mpi_records, data.handles)
        self.requests.restore(data.requests)
        logs.rewind()
        self.replay = logs
        self._replay_done_sent = False
        # --- suppression exchange (synchronous, all ranks participate) ---
        outgoing = [
            tuple(data.early_ids.get(sender, ())) for sender in range(self.nprocs)
        ]
        incoming = yield from coll_impl.co_alltoall(self.comm, RESTORE_BASE, outgoing)
        self.suppress = {
            dest: set(ids) for dest, ids in enumerate(incoming) if ids
        }
        if self.initiator is not None:
            self.initiator.begin_recovery(set(range(self.nprocs)))
            self.initiator.last_commit_time = self.comm.wtime()
        tr = self.tracer
        if tr is not None:
            tr.emit(
                "proto", "restore", rank=self.rank, epoch=self.state.epoch,
                late=len(logs.late), matches=len(logs.matches),
            )
        yield from self._co_maybe_end_replay()

    def release(self) -> None:
        """After its attempt, cut what points back at this layer (the
        checkpoint stage's back-pointer, the initiator's callbacks, the app
        context's state provider) so reference counting frees it and its
        storage; stats stay readable."""
        if self.ckpt is not None:
            self.ckpt.core = self.ckpt.initiator = None
        self.initiator = self.state_provider = None
