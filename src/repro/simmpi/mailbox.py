"""Per-rank message matching engine.

Implements MPI's two-queue matching discipline:

* messages delivered before a matching receive is posted wait in the
  *unexpected-message queue* (in delivery order);
* receives posted before a matching message arrives wait in the
  *posted-receive queue* (in post order).

A newly delivered message is matched against posted receives in post order;
a newly posted receive is matched against unexpected messages in delivery
order.  ``ANY_SOURCE``/``ANY_TAG`` wildcards are honoured; ``ANY_TAG`` is any
*user* tag (``>= 0``) — the library's reserved negative tags (collective
rounds) match only a receive naming that exact tag.  Matching is also
extensible with an arbitrary predicate, which the C3 recovery engine uses to
wait for the message with a specific piggybacked ``messageID`` during
deterministic replay.

Protocol control messages (``TAG_CONTROL``) are not matched at all: they go
to a dedicated *control queue* popped in O(1) by the protocol layer, so
application receives never scan past them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, TAG_CONTROL
from repro.simmpi.message import Envelope


@dataclass(slots=True)
class RecvDescriptor:
    """A posted receive waiting to be matched."""

    source: int
    tag: int
    context: int
    predicate: Optional[Callable[[Envelope], bool]] = None
    matched: Optional[Envelope] = None
    cancelled: bool = False
    #: Post-order sequence assigned by the mailbox.
    order: int = field(default=-1)

    def accepts(self, env: Envelope) -> bool:
        """True if this descriptor matches ``env``."""
        if self.cancelled or self.matched is not None:
            return False
        if self.context != env.context:
            return False
        if self.source != ANY_SOURCE and self.source != env.source:
            return False
        tag = env.tag
        if self.tag != tag and (self.tag != ANY_TAG or tag < 0):
            return False
        if self.predicate is not None and not self.predicate(env):
            return False
        return True


class Mailbox:
    """Matching queues for one rank."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.unexpected: list[Envelope] = []
        self.posted: list[RecvDescriptor] = []
        #: Delivered ``TAG_CONTROL`` messages, in delivery order.
        self.control: deque[Envelope] = deque()
        self._post_counter = 0
        #: Counters for observability and tests.
        self.delivered_count = 0
        self.matched_count = 0

    # ------------------------------------------------------------------ #
    # Delivery side (called by the network when a message arrives).
    # ------------------------------------------------------------------ #

    def deliver(self, env: Envelope) -> Optional[RecvDescriptor]:
        """Hand an arriving message to this rank.

        Returns the receive descriptor it completed, or ``None`` if the
        message was queued (as unexpected, or on the control queue).
        """
        self.delivered_count += 1
        if env.tag == TAG_CONTROL:
            self.control.append(env)
            return None
        for desc in self.posted:
            if desc.accepts(env):
                desc.matched = env
                self.posted.remove(desc)
                self.matched_count += 1
                return desc
        self.unexpected.append(env)
        return None

    # ------------------------------------------------------------------ #
    # Receive side (called by the rank itself).
    # ------------------------------------------------------------------ #

    def post(self, desc: RecvDescriptor) -> RecvDescriptor:
        """Post a receive; matches immediately against unexpected messages."""
        desc.order = self._post_counter
        self._post_counter += 1
        for i, env in enumerate(self.unexpected):
            if desc.accepts(env):
                desc.matched = env
                del self.unexpected[i]
                self.matched_count += 1
                return desc
        self.posted.append(desc)
        return desc

    def cancel(self, desc: RecvDescriptor) -> bool:
        """Cancel a posted, unmatched receive.  Returns True if removed."""
        if desc in self.posted:
            desc.cancelled = True
            self.posted.remove(desc)
            return True
        return False

    def probe(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        context: int = 0,
        predicate: Optional[Callable[[Envelope], bool]] = None,
    ) -> Optional[Envelope]:
        """Peek at the first unexpected message matching the arguments."""
        probe_desc = RecvDescriptor(source, tag, context, predicate)
        for env in self.unexpected:
            if probe_desc.accepts(env):
                return env
        return None

    def pop_control(self) -> Optional[Envelope]:
        """Pop the oldest queued control message (None when idle)."""
        if not self.control:
            return None
        self.matched_count += 1
        return self.control.popleft()

    def pending_unexpected(self) -> int:
        """Number of queued unexpected messages (for stats/assertions)."""
        return len(self.unexpected)

    def clear(self) -> None:
        """Drop all state (used when a rank dies or the sim restarts)."""
        self.unexpected.clear()
        self.control.clear()
        for desc in self.posted:
            desc.cancelled = True
        self.posted.clear()
