"""Public constants for the MPI simulator.

Tag space layout
----------------
Application code may use any tag in ``[0, MAX_USER_TAG]``.  Negative tags are
reserved for the library itself:

* Collective rounds.  Every collective call instance owns a block of
  ``STRIDE`` = ``collectives_impl._TAG_STRIDE`` (64) tags, ``(base -
  STRIDE, base]``, and sends its round ``r`` on ``base - r``.  There are
  three regions of blocks:

  - raw communicator collectives, from the communicator's own call
    sequence ``seq``: ``TAG_COLLECTIVE_BASE - seq·STRIDE - r``;
  - protocol-layer collectives, from the pipeline's checkpointed
    per-communicator sequence, phase 0 the command exchange and phase 1
    the data collective or barrier: ``LAYER_COLL_BASE - (2·seq +
    phase)·STRIDE - r`` (``repro.protocol.stages.pipeline``);
  - the restart's suppression exchange: ``RESTORE_BASE - r`` (same
    module).

  Context ids already keep different communicators apart.
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

