"""repro.trace — virtual-time event tracing.

The paper's whole evaluation is an observability exercise: per-phase
protocol overheads and recovery timelines measured against a baseline.
This package is the layer that makes those timelines *visible* inside
our reproduction:

* :class:`TraceEvent` / :class:`TraceRecorder` — a low-overhead
  structured event bus threaded through every layer (scheduler grants,
  network deliveries, detector suspicions, protocol-stage events,
  checkpoint-store two-phase commits, recovery attempts).
  Events are stamped with **virtual** time only — never the host clock —
  so two runs with the same seed export byte-identical traces.
* :mod:`repro.trace.export` — JSONL and Chrome trace-event JSON
  (Perfetto-loadable, one track per rank on the virtual clock), a text
  timeline and per-category summaries.
* the flight recorder — ``repro.chaos`` embeds each failing cell's
  per-rank event tails into its report, turning "invariant violated"
  into a readable story.

Tracing is off by default and zero-cost when off: every emit site guards
on a single attribute that is ``None`` unless ``RunConfig(trace=True)``
armed a recorder.  When on, the default ring buffer bounds memory and
keeps overhead within a few percent of an untraced run.
"""

from repro.trace.events import CATEGORIES, TraceEvent
from repro.trace.export import (
    read_jsonl,
    render_timeline,
    summarize,
    to_chrome,
    to_jsonl,
    validate_chrome,
    write_chrome,
    write_jsonl,
)
from repro.trace.recorder import DEFAULT_RING_CAPACITY, TraceRecorder, flight_dump

__all__ = [
    "CATEGORIES",
    "DEFAULT_RING_CAPACITY",
    "TraceEvent",
    "TraceRecorder",
    "flight_dump",
    "read_jsonl",
    "render_timeline",
    "summarize",
    "to_chrome",
    "to_jsonl",
    "validate_chrome",
    "write_chrome",
    "write_jsonl",
]
