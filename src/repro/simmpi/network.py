"""The simulated interconnect.

Models a *reliable* transport (the paper assumes one, e.g. LA-MPI): no
message is ever lost or corrupted while both endpoints are alive.  What the
model does vary — under seed control — is **delivery timing and order**:

* every message gets a delivery delay ``base + Exp(jitter)``; the
  ``network`` stream has this one consumer, so ``post`` block-reads it
  (:meth:`RngStream.next_exponential`: numpy is entered once per
  ``rng.BLOCK`` messages, the sequence is the scalar one bit for bit, and
  ``jitter=0`` draws nothing);
* ordering mode ``"fifo"`` forces per-(source, dest) FIFO delivery,
  ``"per_tag_fifo"`` forces FIFO only among messages with equal
  ``(source, dest, tag, context)`` (MPI's non-overtaking guarantee), and
  ``"random"`` allows arbitrary reordering.  A floor per key (its latest
  delivery time) enforces FIFO.  A collective round's key (tag ``<=
  TAG_COLLECTIVE_BASE``) is posted once per attempt, as each call owns a
  tag block, so under ``"per_tag_fifo"`` it has no floor to keep.

The C3 protocol makes **no FIFO assumption at the application level**
(Section 3.3), so it must pass all tests under ``"random"`` as well.

Stopping faults: once a rank is marked dead, nothing further is accepted
from it, and in-flight messages to or from it are dropped when they come
due.  Delivery is the simulator's one loop over the heap
(``Simulator._deliver_due_messages``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush

from repro.errors import SimMPIError
from repro.simmpi.constants import TAG_COLLECTIVE_BASE
from repro.simmpi.message import Envelope
from repro.util.rng import RngStream

ORDERINGS = ("fifo", "per_tag_fifo", "random")


@dataclass
class NetworkStats:
    """Aggregate transport statistics for one run."""

    posted: int = 0
    delivered: int = 0
    dropped_dead_dest: int = 0
    dropped_dead_source: int = 0
    bytes_posted: int = 0
    bytes_delivered: int = 0


class Network:
    """Priority-queue network with configurable delay and ordering."""

    def __init__(
        self,
        nprocs: int,
        rng: RngStream,
        base_delay: float = 5e-6,
        jitter: float = 20e-6,
        ordering: str = "per_tag_fifo",
    ) -> None:
        if ordering not in ORDERINGS:
            raise SimMPIError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
        if base_delay < 0 or jitter < 0:
            raise SimMPIError("delays must be non-negative")
        self.nprocs = nprocs
        self.rng = rng
        self.base_delay = base_delay
        self.jitter = jitter
        self.ordering = ordering
        #: Ordering discipline resolved to flags once; ``post`` runs per
        #: message and string-compares there are measurable.
        self._order_per_tag = ordering == "per_tag_fifo"
        self._order_fifo = ordering == "fifo"
        self.stats = NetworkStats()
        self._seq = 0
        self._heap: list[tuple[float, int, Envelope]] = []
        # Latest scheduled delivery time per ordering key, used to enforce
        # the chosen non-overtaking discipline (no collective round's key).
        self._last_delivery: dict[tuple, float] = {}
        self._dead: set[int] = set()
        #: Optional repro.trace recorder (armed by the simulator).
        self.tracer = None

    # ------------------------------------------------------------------ #

    def post(self, env: Envelope, now: float) -> None:
        """Accept a message from a live sender and schedule its delivery."""
        if env.source in self._dead:
            self.stats.dropped_dead_source += 1
            return
        env.seq = seq = self._seq
        self._seq = seq + 1
        env.send_time = now
        delay = self.base_delay
        if self.jitter > 0:
            delay += self.rng.next_exponential(self.jitter)
        deliver = now + delay
        if self._order_per_tag:
            tag = env.tag
            key = (env.source, env.dest, tag, env.context) if tag > TAG_COLLECTIVE_BASE else None
        elif self._order_fifo:
            key = (env.source, env.dest)
        else:
            key = None
        if key is not None:
            floor = self._last_delivery.get(key, 0.0)
            if deliver <= floor:
                deliver = floor + 1e-12
            self._last_delivery[key] = deliver
        env.deliver_time = deliver
        heappush(self._heap, (deliver, seq, env))
        stats = self.stats
        stats.posted += 1
        stats.bytes_posted += env.nbytes

    def mark_dead(self, rank: int) -> None:
        """Record a stopping fault: drop traffic to/from ``rank`` from now on."""
        self._dead.add(rank)

    # ------------------------------------------------------------------ #

    def next_delivery_time(self) -> float | None:
        """Virtual time of the earliest in-flight message, or None if idle."""
        return self._heap[0][0] if self._heap else None

    def in_flight(self) -> int:
        return len(self._heap)

    def drain(self) -> None:
        """Drop every in-flight message (global teardown before restart)."""
        self._heap.clear()
        self._last_delivery.clear()
