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
  ``"random"`` allows arbitrary reordering.

The C3 protocol makes **no FIFO assumption at the application level**
(Section 3.3), so it must pass all tests under ``"random"`` as well.

Stopping faults: once a rank is marked dead, in-flight messages addressed to
it are silently dropped at delivery time, and nothing further is accepted
from it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import SimMPIError
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
        # the chosen non-overtaking discipline.
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
            key = (env.source, env.dest, env.tag, env.context)
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
        heapq.heappush(self._heap, (deliver, env.seq, env))
        self.stats.posted += 1
        self.stats.bytes_posted += env.nbytes

    def mark_dead(self, rank: int) -> None:
        """Record a stopping fault: drop traffic to/from ``rank`` from now on."""
        self._dead.add(rank)

    # ------------------------------------------------------------------ #

    def next_delivery_time(self) -> float | None:
        """Virtual time of the earliest in-flight message, or None if idle."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float) -> list[Envelope]:
        """Remove and return all messages whose delivery time has arrived.

        Dead-destination messages are dropped here (the stopping model: a
        dead process neither sends nor receives).
        """
        due: list[Envelope] = []
        tr = self.tracer
        while self._heap and self._heap[0][0] <= now:
            _, _, env = heapq.heappop(self._heap)
            if env.dest in self._dead or env.source in self._dead:
                if env.dest in self._dead:
                    self.stats.dropped_dead_dest += 1
                else:
                    self.stats.dropped_dead_source += 1
                if tr is not None:
                    tr.emit(
                        "net", "drop", t=env.deliver_time, rank=env.dest,
                        source=env.source, tag=env.tag,
                    )
                continue
            if tr is not None:
                tr.emit(
                    "net", "deliver", t=env.deliver_time, rank=env.dest,
                    source=env.source, tag=env.tag, nbytes=env.nbytes,
                )
            self.stats.delivered += 1
            self.stats.bytes_delivered += env.nbytes
            due.append(env)
        return due

    def in_flight(self) -> int:
        return len(self._heap)

    def drain(self) -> None:
        """Drop every in-flight message (global teardown before restart)."""
        self._heap.clear()
        self._last_delivery.clear()
