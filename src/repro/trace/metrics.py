"""Unified metrics registry.

Before this module the repo's counters were scattered: ``LayerStats``
per rank, ``RunOutcome.stage_totals()``, chaos-report dict literals —
each with its own shape.  The registry gives them one vocabulary:

* **counter** — monotone event count (messages logged, waves committed).
* **gauge**   — point-in-time value (committed epoch, virtual time).
* **histogram** — distribution summarised as count/min/max/sum/mean
  (chaos virtual times).

``snapshot()`` renders everything as one JSON-safe dict under the
``repro.metrics/1`` schema; ``RunOutcome.metrics_snapshot()``, sweep
rows and chaos verdicts all read from it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping

METRICS_SCHEMA = "repro.metrics/1"


class MetricsRegistry:
    """Mutable registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------- mutation

    def count(self, name: str, delta: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + delta

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        h = self._hists.get(name)
        if h is None:
            self._hists[name] = {
                "count": 1,
                "min": value,
                "max": value,
                "sum": value,
            }
        else:
            h["count"] += 1
            h["sum"] += value
            if value < h["min"]:
                h["min"] = value
            if value > h["max"]:
                h["max"] = value

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        for v in values:
            self.observe(name, v)

    def merge(self, other: "MetricsRegistry") -> None:
        for k, v in other._counters.items():
            self.count(k, v)
        self._gauges.update(other._gauges)
        for name, h in other._hists.items():
            mine = self._hists.get(name)
            if mine is None:
                self._hists[name] = dict(h)
            else:
                mine["count"] += h["count"]
                mine["sum"] += h["sum"]
                mine["min"] = min(mine["min"], h["min"])
                mine["max"] = max(mine["max"], h["max"])

    # --------------------------------------------------------------- export

    def snapshot(self) -> Dict[str, Any]:
        hists = {}
        for name in sorted(self._hists):
            h = self._hists[name]
            hists[name] = {
                "count": h["count"],
                "min": h["min"],
                "max": h["max"],
                "sum": h["sum"],
                "mean": h["sum"] / h["count"] if h["count"] else 0.0,
            }
        return {
            "schema": METRICS_SCHEMA,
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": hists,
        }


def _is_snapshot(d: Mapping[str, Any]) -> bool:
    return d.get("schema") == METRICS_SCHEMA


def snapshot_get(snapshot: Mapping[str, Any], kind: str, name: str, default: Any = None) -> Any:
    """Read one metric out of a snapshot dict, tolerating absence."""
    if not _is_snapshot(snapshot):
        return default
    return snapshot.get(kind, {}).get(name, default)


# --------------------------------------------------------------------------
# Builders: adapt the repo's existing stat carriers onto the registry.
# --------------------------------------------------------------------------


def outcome_metrics(outcome: Any) -> MetricsRegistry:
    """Registry view of a :class:`repro.runtime.driver.RunOutcome`.

    Everything here is derived from *virtual-time* accounting and exact
    counts — wall-clock readings (``total_wall_seconds``, per-attempt
    ``wall_seconds``) are deliberately excluded so two same-seed runs
    snapshot identically and the snapshot can feed bit-identity
    invariants.
    """
    reg = MetricsRegistry()
    attempts = list(getattr(outcome, "attempts", ()) or ())
    reg.gauge("run.attempts", float(len(attempts)))
    reg.gauge("run.restarts", float(max(0, len(attempts) - 1)))
    reg.gauge("run.virtual_time", float(outcome.total_virtual_time))
    reg.gauge(
        "run.completed",
        1.0 if (attempts and attempts[-1].completed) else 0.0,
    )
    reg.count(
        "run.kills", float(sum(len(rec.kills) for rec in attempts))
    )
    reg.count(
        "run.checkpoint_crashes",
        float(sum(len(rec.checkpoint_crashes) for rec in attempts)),
    )
    reg.count("ckpt.commits", float(outcome.checkpoints_committed))
    reg.count("store.bytes_written", float(outcome.storage_bytes_written))
    reg.count("net.messages", float(outcome.network_messages))
    reg.count("net.bytes", float(outcome.network_bytes))
    for name, entry in outcome.stage_totals().items():
        reg.count(f"proto.stage_calls.{name}", float(entry["calls"]))
    tracer = getattr(outcome, "trace", None)
    if tracer is not None:
        reg.gauge("trace.events", float(len(tracer)))
        reg.gauge("trace.dropped", float(tracer.dropped))
    return reg


def campaign_metrics(verdicts: Iterable[Any]) -> MetricsRegistry:
    """Registry view of a chaos campaign's verdicts.

    Accepts :class:`~repro.chaos.campaign.ScenarioVerdict` objects or
    their ``to_dict()`` renderings.  Everything counted here is
    deterministic per campaign seed, so the snapshot is safe to embed in
    reports that feed warm-rerun bit-identity checks.
    """
    reg = MetricsRegistry()
    for name in ("scenarios", "passed", "failed", "violations",
                 "kills_fired", "crashes_fired", "checkpoints_committed"):
        reg.count(f"chaos.{name}", 0.0)
    for v in verdicts:
        if isinstance(v, Mapping):
            def get(key: str, default: Any = 0, _v: Mapping[str, Any] = v) -> Any:
                return _v.get(key, default)
        else:
            def get(key: str, default: Any = 0, _v: Any = v) -> Any:
                return getattr(_v, key, default)
        reg.count("chaos.scenarios")
        reg.count("chaos.passed" if get("ok", False) else "chaos.failed")
        reg.count("chaos.violations", float(len(get("violations", ()))))
        reg.count("chaos.kills_fired", float(get("kills_fired")))
        reg.count("chaos.crashes_fired", float(get("crashes_fired")))
        reg.count(
            "chaos.checkpoints_committed", float(get("checkpoints_committed"))
        )
        reg.observe("chaos.virtual_time", float(get("virtual_time", 0.0)))
    return reg
