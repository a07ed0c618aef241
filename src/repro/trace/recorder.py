"""Ring-buffered trace recorder.

Design constraints, in order:

1. **Zero cost when off.**  Every layer guards emission on a single
   attribute read (``tr = self.tracer``; ``if tr is not None``).  The
   recorder itself never appears on a hot path unless tracing is armed.
2. **No locks.**  The simulator runs every rank on one thread, one slice
   at a time, and driver/farm emissions happen outside simulation, so a
   plain ``collections.deque`` is safe.
3. **Bounded when on.**  The default ring keeps the last
   ``DEFAULT_RING_CAPACITY`` events; ``capacity=None`` keeps everything
   (what the CLI uses for full exports).
4. **Virtual time only.**  Events are stamped from the bound
   :class:`~repro.simmpi.clock.VirtualClock` plus a cumulative
   cross-attempt offset, never from the host clock, so traces are
   deterministic per seed and safe to embed in chaos reports that feed
   bit-identity checks.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

from repro.trace.events import TraceEvent

DEFAULT_RING_CAPACITY = 65536

# Default per-rank tail length for flight-recorder dumps.
FLIGHT_TAIL = 20


class TraceRecorder:
    """Collects :class:`TraceEvent` objects on one global virtual timeline.

    The recorder survives across recovery attempts: the driver calls
    :meth:`begin_attempt` before each attempt and :meth:`end_attempt`
    with the attempt's final virtual time afterwards, which advances the
    offset so the next attempt's clock (restarting at zero) continues the
    global timeline monotonically.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_RING_CAPACITY) -> None:
        self.capacity = capacity
        # The ring holds raw tuples, not TraceEvent objects: emit() sits
        # under every scheduling slice, and skipping dataclass
        # construction there keeps traced runs within the ~10% overhead
        # envelope.  Events are materialised lazily on read.
        self._ring: Deque[tuple] = deque(maxlen=capacity)
        self._clock: Optional[Any] = None
        self._offset = 0.0
        self._attempt = 0
        self._emitted = 0  # total emit() calls; dropped is derived

    # ---------------------------------------------------------------- wiring

    def bind_clock(self, clock: Any) -> None:
        """Attach the current attempt's virtual clock (``.now`` attribute)."""
        self._clock = clock

    def begin_attempt(self, index: int) -> None:
        self._attempt = index

    def end_attempt(self, virtual_time: float) -> None:
        """Advance the global-time offset past a finished attempt."""
        self._offset += virtual_time
        self._clock = None

    @property
    def attempt(self) -> int:
        return self._attempt

    @property
    def offset(self) -> float:
        return self._offset

    # -------------------------------------------------------------- emission

    def emit(
        self,
        category: str,
        name: str,
        *,
        t: Optional[float] = None,
        rank: Optional[int] = None,
        epoch: Optional[int] = None,
        **payload: Any,
    ) -> None:
        """Record one event.

        ``t``, when given, is an *attempt-local* virtual time (e.g. a
        message's scheduled delivery time); when omitted the bound
        clock's current time is used.  Either way the cross-attempt
        offset is added to place the event on the global timeline.
        """
        if t is None:
            clock = self._clock
            t = clock.now if clock is not None else 0.0
        self._emitted += 1
        self._ring.append(
            (t + self._offset, category, name, rank, epoch, self._attempt, payload)
        )

    @property
    def dropped(self) -> int:
        """Events pushed out of a full ring (derived, not counted per emit)."""
        return max(0, self._emitted - len(self._ring))

    @staticmethod
    def _materialise(row: tuple) -> TraceEvent:
        t, category, name, rank, epoch, attempt, payload = row
        return TraceEvent(
            t=t, category=category, name=name, rank=rank, epoch=epoch,
            attempt=attempt, payload=payload,
        )

    # ---------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return (self._materialise(row) for row in self._ring)

    @property
    def events(self) -> List[TraceEvent]:
        return [self._materialise(row) for row in self._ring]

    def clear(self) -> None:
        self._ring.clear()
        self._emitted = 0

    def tail(self, rank: Optional[int] = None, n: int = FLIGHT_TAIL) -> List[TraceEvent]:
        """Last ``n`` events, optionally filtered to one rank.

        Rank filtering keeps sim-level events (``rank is None``) out so a
        blocked proc's tail shows *its own* recent history.
        """
        if rank is None:
            return [self._materialise(row) for row in list(self._ring)[-n:]]
        out: List[TraceEvent] = []
        for row in reversed(self._ring):
            if row[3] == rank:
                out.append(self._materialise(row))
                if len(out) == n:
                    break
        out.reverse()
        return out

    def ranks(self) -> List[int]:
        seen = {row[3] for row in self._ring if row[3] is not None}
        return sorted(seen)

    def flight_dump(self, per_rank: int = FLIGHT_TAIL) -> Dict[str, List[Dict[str, Any]]]:
        """Last-N events per rank as JSON-safe dicts, for chaos reports.

        Keys are stringified ranks (JSON objects need string keys) plus
        ``"sim"`` for rank-less simulator/driver events.
        """
        dump: Dict[str, List[Dict[str, Any]]] = {}
        for rank in self.ranks():
            dump[str(rank)] = [ev.to_dict() for ev in self.tail(rank, per_rank)]
        sim_tail = [row for row in self._ring if row[3] is None][-per_rank:]
        if sim_tail:
            dump["sim"] = [self._materialise(row).to_dict() for row in sim_tail]
        return dump

    # ---------------------------------------------------------------- pickle

    # RunOutcome objects (which can carry a recorder) cross process pools
    # in Session.map/sweep; the clock binding is attempt-local machinery
    # and must not travel.
    def __getstate__(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "events": [ev.to_dict() for ev in self],
            "offset": self._offset,
            "attempt": self._attempt,
            "dropped": self.dropped,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.capacity = state["capacity"]
        self._ring = deque(
            (
                (ev.t, ev.category, ev.name, ev.rank, ev.epoch, ev.attempt, ev.payload)
                for ev in (TraceEvent.from_dict(d) for d in state["events"])
            ),
            maxlen=self.capacity,
        )
        self._clock = None
        self._offset = state["offset"]
        self._attempt = state["attempt"]
        self._emitted = state["dropped"] + len(self._ring)


def flight_dump(
    recorder: Optional[TraceRecorder], per_rank: int = FLIGHT_TAIL
) -> Optional[Dict[str, List[Dict[str, Any]]]]:
    """Convenience wrapper tolerating a missing recorder."""
    if recorder is None or len(recorder) == 0:
        return None
    return recorder.flight_dump(per_rank)


def events_from_dicts(dicts: Iterable[Dict[str, Any]]) -> List[TraceEvent]:
    return [TraceEvent.from_dict(d) for d in dicts]
