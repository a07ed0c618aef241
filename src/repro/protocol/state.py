"""Per-process protocol variables (paper Section 4.4, Figure 4 preamble).

:class:`ProtocolState` carries exactly the variables the paper's pseudocode
maintains, under the paper's names (snake_cased):

* ``epoch`` — current epoch number, initialised to 0;
* ``am_logging`` — whether late-message/non-determinism logging is active;
* ``next_message_id`` — per-epoch send sequence number;
* ``checkpoint_requested`` — set by ``pleaseCheckpoint``;
* ``send_count[q]`` — application messages sent to ``q`` this epoch;
* ``early_ids[q]`` — IDs of early messages received from ``q``;
* ``current_receive_count[q]`` / ``previous_receive_count[q]`` — the paper's
  two receive counters (late messages of the previous epoch may intersperse
  with intra-epoch messages of the new one, Section 4.3);
* ``total_sent[q]`` — the count announced by ``q``'s ``mySendCount``; no
  entry is the paper's ⊥.

The per-peer dicts are sparse — a missing key *is* the paper's initial value
(0, ``[]``, ⊥) — so the state riding inside every local checkpoint names only
the peers a rank exchanged messages with, whatever ``nprocs``.  The topology is
derived, not stored: every other rank is a peer (:meth:`ProtocolState.peers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class ProtocolState:
    """Figure-4 variables for one process."""

    rank: int
    nprocs: int
    epoch: int = 0
    am_logging: bool = False
    next_message_id: int = 0
    checkpoint_requested: bool = False
    #: Epoch this process has been asked to move into (wave target), used to
    #: ignore duplicate/stale pleaseCheckpoint tokens.
    requested_target: int = 0
    #: Sparse per-peer variables; an absent peer has sent/received nothing.
    send_count: dict[int, int] = field(default_factory=dict)
    early_ids: dict[int, list[int]] = field(default_factory=dict)
    current_receive_count: dict[int, int] = field(default_factory=dict)
    previous_receive_count: dict[int, int] = field(default_factory=dict)
    #: Absent = ⊥: that peer's ``mySendCount`` has not arrived yet.
    total_sent: dict[int, int] = field(default_factory=dict)
    #: Whether readyToStopLogging has been sent for the current epoch.
    ready_sent: bool = False

    # ------------------------------------------------------------------ #

    def peers(self) -> list[int]:
        """Every other rank, ascending (the paper's senders = receivers)."""
        return [q for q in range(self.nprocs) if q != self.rank]

    def note_send(self, dest: int) -> int:
        """Account for one application send; returns the message's ID."""
        message_id = self.next_message_id
        self.next_message_id += 1
        self.send_count[dest] = self.send_count.get(dest, 0) + 1
        return message_id

    def all_late_received(self) -> bool:
        """The paper's receivedAll? condition over every sender."""
        if len(self.total_sent) < self.nprocs - 1:
            return False  # some peer's count is still ⊥
        received, expected = self.previous_receive_count, self.total_sent
        return all(received.get(q, 0) == expected.get(q) for q in self.peers())

    def reset_total_sent(self) -> None:
        self.total_sent = {}

    def epoch_transition(self) -> dict[int, int]:
        """Apply the potentialCheckpoint bookkeeping of Figure 4.

        Shifts the receive counters, re-seeds the current counts from the
        early-message IDs (early messages belong to the *new* epoch), clears
        the early lists and the per-epoch send state, and increments the
        epoch.  Returns the per-receiver send counts of the epoch that just
        ended (the ``mySendCount`` payloads; a receiver not in it was sent 0).
        """
        old_send_counts = self.send_count
        self.epoch += 1
        self.previous_receive_count = self.current_receive_count
        self.current_receive_count = {
            q: len(ids) for q, ids in self.early_ids.items() if ids
        }
        self.early_ids = {}
        self.send_count = {}
        self.checkpoint_requested = False
        self.next_message_id = 0
        self.ready_sent = False
        return old_send_counts

    def snapshot_for_checkpoint(self) -> "ProtocolState":
        """The state image stored in a local checkpoint.

        Captured *after* :meth:`epoch_transition`, with logging-related
        transients normalised: a restored process starts its epoch in replay
        mode, not logging mode, and awaits fresh ``mySendCount`` tokens only
        at its next checkpoint.
        """
        return replace(
            self,
            am_logging=False,
            checkpoint_requested=False,
            ready_sent=False,
            next_message_id=0,
            send_count=dict(self.send_count),
            early_ids={q: list(ids) for q, ids in self.early_ids.items()},
            current_receive_count=dict(self.current_receive_count),
            previous_receive_count={},
            total_sent={},
        )
