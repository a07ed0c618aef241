"""Trace event model.

One event = one interesting thing that happened at a point in virtual
time.  Events are deliberately tiny and JSON-safe: timestamps are the
simulator's virtual clock (plus a cross-attempt offset maintained by the
recorder), payloads hold only primitives, and nothing derived from the
host wall clock ever enters an event — that is what makes two same-seed
runs export byte-identical traces and lets chaos flight dumps feed the
bit-identity invariant without poisoning it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

# Category registry.  Exporters group tracks and summaries by these; the
# README's event-category table mirrors this tuple.
CATEGORIES = (
    "sched",     # scheduler grants / blocks / wakes / kill requests
    "net",       # network deliveries and dead-rank drops
    "fail",      # injected kills (failure schedule firing)
    "detect",    # suspicions, one detector timeout after each death
    "proto",     # protocol pipeline: classify / log / replay / piggyback
    "ckpt",      # checkpoint protocol phases (local ckpt, log finalize, ...)
    "store",     # checkpoint store two-phase commit / retention GC
    "recovery",  # driver-level attempt begin/end and restore decisions
)

_CATEGORY_SET = frozenset(CATEGORIES)


@dataclass(slots=True)
class TraceEvent:
    """A single structured event on the global virtual timeline.

    ``t`` is global virtual time: attempt-local clock plus the recorder's
    cumulative offset, so a multi-attempt recovery run yields one
    monotone timeline (each attempt's clock restarts at zero).
    """

    t: float
    category: str
    name: str
    rank: Optional[int] = None
    epoch: Optional[int] = None
    attempt: int = 0
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "t": self.t,
            "cat": self.category,
            "name": self.name,
            "attempt": self.attempt,
        }
        if self.rank is not None:
            d["rank"] = self.rank
        if self.epoch is not None:
            d["epoch"] = self.epoch
        if self.payload:
            d["payload"] = self.payload
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceEvent":
        return cls(
            t=float(d["t"]),
            category=d["cat"],
            name=d["name"],
            rank=d.get("rank"),
            epoch=d.get("epoch"),
            attempt=int(d.get("attempt", 0)),
            payload=dict(d.get("payload", ())),
        )

    def short(self) -> str:
        """Compact one-token-ish rendering for deadlock tails and logs."""
        bits = [f"{self.category}.{self.name}@{self.t:.6g}"]
        if self.payload:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.payload.items()))
            bits.append(f"({inner})")
        return "".join(bits)

    def __post_init__(self) -> None:
        if self.category not in _CATEGORY_SET:
            raise ValueError(
                f"unknown trace category {self.category!r}; expected one of {CATEGORIES}"
            )
