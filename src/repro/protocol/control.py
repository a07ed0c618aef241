"""Control words of the C3 coordination protocol.

These are the out-of-band tokens of Section 4.1's four phases plus the
recovery-time handshake.  They travel on the reserved ``TAG_CONTROL`` tag,
bypass piggybacking, and are never counted in the application-message
bookkeeping.

Each token is one ``int`` packed by :func:`repro.util.intpack.pack_control`:
its kind (the constants below), the full epoch it belongs to, and for
``mySendCount`` its count.  The sender is not in the word: a receiver reads
it from the envelope's source (a rank's tokens to itself are handled in
place, with its own rank).  A token therefore costs one 8-byte word on the
wire, however large its epoch or count.

Protocol phases (paper Section 4.1):

1. initiator → all: ``PLEASE_CHECKPOINT`` — take a local checkpoint, moving
   into ``epoch``
2. each process, at its local checkpoint: ``MY_SEND_COUNT`` to every peer —
   ``epoch`` is the epoch it just entered, ``count`` the application
   messages it sent that peer during ``epoch - 1`` (the late messages the
   peer must await, less those it already received intra-epoch); once all
   late messages have arrived it sends ``READY_TO_STOP_LOGGING`` to the
   initiator
3. initiator, after hearing from everyone: ``STOP_LOGGING`` to all
4. each process, after flushing its log: ``STOPPED_LOGGING`` to the
   initiator, which then commits the global checkpoint

Recovery addition (a quiescence guard; Section 4.2's early-message
suppression lists travel in one Bruck ``alltoall`` at restore, ceil(log2(n))
messages per rank, not as tokens):

* ``REPLAY_DONE`` — a restarted process tells the initiator it has consumed
  its logs, so the initiator can safely start the next checkpoint wave (no
  wave may overlap a replay).
"""

from __future__ import annotations

from repro.util.intpack import pack_control, unpack_control

PLEASE_CHECKPOINT = 0
MY_SEND_COUNT = 1
READY_TO_STOP_LOGGING = 2
STOP_LOGGING = 3
STOPPED_LOGGING = 4
REPLAY_DONE = 5

__all__ = [
    "MY_SEND_COUNT",
    "PLEASE_CHECKPOINT",
    "READY_TO_STOP_LOGGING",
    "REPLAY_DONE",
    "STOPPED_LOGGING",
    "STOP_LOGGING",
    "pack_control",
    "unpack_control",
]
