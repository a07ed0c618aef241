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
from typing import Callable, Optional

from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, TAG_CONTROL
from repro.simmpi.message import Envelope


class RecvDescriptor:
    """A posted receive waiting to be matched.

    Descriptors compare by identity: a posted receive is one particular
    call, and the queue operations (``remove``, ``in``) look for that
    call, never for an equal-looking one.
    """

    __slots__ = ("source", "tag", "context", "predicate", "matched", "cancelled")

    def __init__(
        self,
        source: int,
        tag: int,
        context: int,
        predicate: Optional[Callable[[Envelope], bool]] = None,
    ) -> None:
        self.source = source
        self.tag = tag
        self.context = context
        self.predicate = predicate
        self.matched: Optional[Envelope] = None
        self.cancelled = False


class Mailbox:
    """Matching queues for one rank."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.unexpected: list[Envelope] = []
        self.posted: list[RecvDescriptor] = []
        #: Delivered ``TAG_CONTROL`` messages, in delivery order.
        self.control: deque[Envelope] = deque()
        #: Counters for observability and tests.
        self.delivered_count = 0
        self.matched_count = 0

    # ------------------------------------------------------------------ #
    # Delivery side (called by the network when a message arrives).
    # ------------------------------------------------------------------ #

    def deliver(self, env: Envelope) -> Optional[RecvDescriptor]:
        """Hand an arriving message to this rank.

        Returns the receive descriptor it completed, or ``None`` if the
        message was queued (as unexpected, or on the control queue).  The
        posted queue holds no matched or cancelled descriptor, so the
        match is the module's rule, written out over the queue in one
        pass; only a descriptor that has a predicate makes a call.
        """
        self.delivered_count += 1
        tag = env.tag
        if tag == TAG_CONTROL:
            self.control.append(env)
            return None
        posted = self.posted
        if posted:
            source = env.source
            context = env.context
            for i, desc in enumerate(posted):
                if desc.context != context:
                    continue
                want = desc.source
                if want != source and want != ANY_SOURCE:
                    continue
                want = desc.tag
                if want != tag and (want != ANY_TAG or tag < 0):
                    continue
                predicate = desc.predicate
                if predicate is not None and not predicate(env):
                    continue
                desc.matched = env
                del posted[i]
                self.matched_count += 1
                return desc
        self.unexpected.append(env)
        return None

    # ------------------------------------------------------------------ #
    # Receive side (called by the rank itself).
    # ------------------------------------------------------------------ #

    def _find_unexpected(
        self, source: int, tag: int, context: int, predicate: Optional[Callable]
    ) -> int:
        """Index of the oldest unexpected message a receive for these
        arguments matches (:meth:`deliver`'s rule, over the other queue),
        or -1."""
        for i, env in enumerate(self.unexpected):
            if env.context != context:
                continue
            if source != env.source and source != ANY_SOURCE:
                continue
            have = env.tag
            if have != tag and (tag != ANY_TAG or have < 0):
                continue
            if predicate is None or predicate(env):
                return i
        return -1

    def post(self, desc: RecvDescriptor) -> RecvDescriptor:
        """Post a fresh receive; matches immediately against unexpected
        messages."""
        i = self._find_unexpected(desc.source, desc.tag, desc.context, desc.predicate)
        if i < 0:
            self.posted.append(desc)
        else:
            desc.matched = self.unexpected.pop(i)
            self.matched_count += 1
        return desc

    def take(self, source: int, tag: int, context: int) -> Optional[Envelope]:
        """Remove and return the oldest unexpected message from ``source``
        with exactly ``tag`` on ``context``, or ``None``.

        A collective round's receive: it names its source and its reserved
        tag and has no predicate, so a queued message is found without a
        descriptor.  Only when this finds nothing does the round build one,
        and it appends it to :attr:`posted` directly: :meth:`post`'s scan
        of the unexpected queue would find nothing either.
        """
        unexpected = self.unexpected
        for i, env in enumerate(unexpected):
            if env.tag == tag and env.source == source and env.context == context:
                del unexpected[i]
                self.matched_count += 1
                return env
        return None

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
        i = self._find_unexpected(source, tag, context, predicate)
        return None if i < 0 else self.unexpected[i]

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
