"""Public constants for the MPI simulator.

Tag space layout
----------------
Application code may use any tag in ``[0, MAX_USER_TAG]``.  Negative tags are
reserved for the library itself:

* ``TAG_COLLECTIVE_BASE`` — point-to-point messages that implement collective
  operations (each collective call instance gets a distinct tag derived from
  a per-communicator collective sequence number, so concurrent collectives on
  different communicators cannot interfere).
* ``TAG_CONTROL`` — C3 protocol control words (pleaseCheckpoint,
  mySendCount, readyToStopLogging, stopLogging, stoppedLogging, replayDone),
  each one packed ``int`` (``repro.protocol.control``).  Control messages
  bypass piggybacking.
"""

from __future__ import annotations

#: Wildcard source for receives: match a message from any rank.
ANY_SOURCE: int = -1

#: Wildcard tag for receives: match a message with any user tag.
ANY_TAG: int = -1

#: Largest tag available to applications.
MAX_USER_TAG: int = 2**29

#: Base of the (negative) tag range used by collective implementations.
TAG_COLLECTIVE_BASE: int = -1000

#: Tag carrying C3 protocol control messages.
TAG_CONTROL: int = -2


def collective_tag(sequence: int) -> int:
    """Reserved tag for the ``sequence``-th collective on a communicator."""
    return TAG_COLLECTIVE_BASE - sequence
