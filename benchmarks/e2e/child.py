"""One launch of one workload, in a fresh interpreter spawned by ``run.py``.

Protocol with the orchestrator: the job arrives as one JSON argument; the
line ``ready`` goes to stdout when set-up ends (the orchestrator times
spawn → ``ready`` as ``setup_s``); the launch's result is the last stdout
line, as JSON.  Diagnostics go to stderr.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import pickle
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import replace
from time import perf_counter
from typing import Any, Callable, Optional

from repro import RunConfig, Session, Variant, get_app
from repro.simmpi.failures import FailureSchedule

from spans import SpanLog, timed_storage
from speed import REFERENCE_S, kernel, scaled
from workloads import QUICK_WORKLOADS, WORKLOADS, Workload

#: The five runs of a round, in forward order.
RUNS = ("v0", "v1", "v2", "v3", "recovery")
VARIANT_OF = {
    "v0": Variant.UNMODIFIED,
    "v1": Variant.PIGGYBACK,
    "v2": Variant.NO_APP_STATE,
    "v3": Variant.FULL,
    "recovery": Variant.FULL,
}
#: ``LayerStats`` counters summed over ranks into a run's exact facts.
LAYER_COUNTERS = (
    "sends", "receives", "suppressed_sends", "late_logged", "early_recorded",
    "nondet_logged", "collectives", "collective_results_logged",
    "checkpoints_taken", "replayed_late", "replayed_matches",
    "replayed_nondet", "replayed_collectives", "control_messages",
    "ckpt_logical_bytes", "ckpt_stored_bytes", "ckpt_chunks_reused",
)
REPLAY_COUNTERS = ("replayed_matches", "replayed_late", "replayed_collectives")
#: Timed repeats of every direct probe (the median is reported).
PROBE_REPEATS = 5


def exact_facts(outcome: Any) -> dict:
    """Everything a run reports that must repeat bit-for-bit per seed."""
    facts = {
        "virtual_s": outcome.total_virtual_time,
        "messages": outcome.network_messages,
        "bytes": outcome.network_bytes,
        "waves": outcome.checkpoints_committed,
        "stored_bytes": outcome.storage_bytes_written,
        "restarts": outcome.restarts,
        "restored_epoch": outcome.attempts[-1].started_from_epoch,
        "results_sha256": hashlib.sha256(repr(outcome.results).encode()).hexdigest(),
    }
    for name in LAYER_COUNTERS:
        facts[name] = sum(
            getattr(stats, name, 0) for stats in outcome.layer_stats if stats is not None
        )
    for stage, entry in outcome.stage_totals().items():
        facts[f"stage_calls.{stage}"] = entry["calls"]
    for record in outcome.attempts:
        facts[f"attempt{record.index}_virtual_s"] = record.virtual_time
    return facts


class Launch:
    """State of one launch: the session, the spans, the first exact facts."""

    def __init__(self, workload: Workload, job: dict) -> None:
        self.workload = workload
        self.seed = job["seed"]
        self.index = job["launch"]
        self.fail_probe = job.get("fail_probe")
        #: Messages per no-compute simulator-core probe.
        self.probe_messages = 1000 if job["quick"] else 8000
        self.session = Session()
        self.spans = SpanLog()
        #: First successful run's exact facts per run name; later runs of
        #: this launch must match them (the orchestrator compares launches).
        self.exact: dict[str, dict] = {}
        self.v0_results: Optional[list] = None

    # ------------------------------------------------------------------ #

    def execute(self, name: str, label: str, traced: bool = False) -> tuple[Any, Any]:
        """One complete ``Session.run`` of run ``name``: ``(outcome, storage)``
        (the storage is the timed one of a traced run, else None)."""
        w = self.workload
        config = RunConfig(
            nprocs=w.nprocs, seed=self.seed, variant=VARIANT_OF[name],
            checkpoint_interval=w.checkpoint_interval, **w.config,
        )
        failures = None
        if name == "recovery":
            failures = FailureSchedule.single(time=w.kill_time, rank=w.kill_rank)
        storage = None
        if traced:
            config = replace(config, trace=True, trace_buffer=None)
            storage = timed_storage(config, self.spans)
        self.spans.run_id = f"{w.name}/{name}/{label}"
        with self.spans.span("session.run"):
            outcome = self.session.run(
                w.app, config, params=w.params, failures=failures, storage=storage
            )
        return outcome, storage

    def run(self, name: str, label: str, traced: bool = False) -> dict:
        """One operation: a timed :meth:`execute` plus its checks.

        Returns ``{"run", "round", "wall", "scale", "error", "timings"}``
        (and, for traced runs, the scanned ``"trace"`` and the ``"storage"``
        it wrote through); ``wall`` and ``timings`` are raw seconds, ``scale``
        takes them to reference speed, ``error`` is None for a correct run.
        """
        record: dict = {"run": name, "round": label, "wall": None, "error": None, "timings": {}}
        gc.collect()
        try:
            (outcome, storage), record["wall"], record["scale"] = scaled(
                lambda: self.execute(name, label, traced)
            )
        except Exception as exc:  # the operation failed; the benchmark goes on
            traceback.print_exc(file=sys.stderr)
            record["error"] = f"raised {exc!r}"
            return record
        record["error"] = self._verdict(name, outcome)
        record["results"] = repr(outcome.results)
        if name == "v0" and self.v0_results is None:
            self.v0_results = outcome.results
        for attempt in outcome.attempts:
            record["timings"][f"attempt{attempt.index}_wall_s"] = attempt.wall_seconds
        if traced:
            record["storage"] = storage
            record["trace"] = self.probe("trace.scan", lambda: scan_trace(outcome.trace))
        return record

    def _verdict(self, name: str, outcome: Any) -> Optional[str]:
        if not outcome.completed:
            return "run did not complete"
        facts = exact_facts(outcome)
        if name == "recovery":
            if outcome.restarts < 1:
                return "the kill forced no restart"
            if outcome.attempts[1].started_from_epoch is None:
                return "attempt 1 restarted from scratch, not from a committed epoch"
            if not any(facts[c] for c in REPLAY_COUNTERS):
                return "recovery replayed nothing"
        first = self.exact.setdefault(name, facts)
        for key in sorted(set(first) | set(facts)):
            if first.get(key) != facts.get(key):
                return (
                    f"exact metric drift: {name}.{key} "
                    f"{first.get(key)!r} != {facts.get(key)!r}"
                )
        return None

    def round(self, number: int, traced: bool = False) -> list[dict]:
        """The five runs, forward or reverse, then the bitwise-V0 check."""
        forward = (number + self.index) % 2 == 0
        label = f"{'t' if traced else 'l'}{self.index}r{number}"
        runs = [self.run(name, label, traced) for name in (RUNS if forward else RUNS[::-1])]
        reference = next(r for r in runs if r["run"] == "v0").get("results")
        for record in runs:
            if record["error"] is None and record["results"] != reference:
                record["error"] = "per-rank results differ bitwise from the round's V0 run"
        return runs

    # ------------------------------------------------------------------ #

    def probe(self, label: str, fn: Callable[[], dict]) -> dict:
        """Per-layer measurements that may lose their seam: a probe that
        raises contributes no values (they read null) and never fails the
        launch."""
        try:
            if label == self.fail_probe:
                raise RuntimeError("probe failure forced by --fail-probe")
            return fn()
        except Exception:
            print(f"probe {label!r} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return {}


# ===================================================================== #
# Set-up, and the untraced rounds.
# ===================================================================== #


def set_up(launch: Launch) -> dict:
    """Everything a fresh process pays before its first useful run: cold
    precompile, static check, then one discarded V3 run (store
    construction, cold caches).  Raw seconds: ``main`` scales them by the
    speed it measures once set-up is over."""
    w = launch.workload
    launch.spans.run_id = f"{w.name}/setup/l{launch.index}"
    layer: dict = {}

    def compile_unit() -> dict:
        module = importlib.import_module(get_app(w.app).module)
        started = perf_counter()
        with launch.spans.span("precompiler.unit"):
            module.unit()
        return {"precompiler.compile_s": perf_counter() - started}

    def verify() -> dict:
        from repro.check.driver import check_app

        started = perf_counter()
        with launch.spans.span("check.check_app"):
            result = check_app(w.app)
        return {
            "check.verify_s": perf_counter() - started,
            "check.diagnostics": len(result.diagnostics),
        }

    layer.update(launch.probe("precompiler.unit", compile_unit))
    layer.update(launch.probe("check.check_app", verify))
    launch.execute("v3", f"setup/l{launch.index}")  # discarded
    return layer


def untraced_rounds(launch: Launch, budget_s: float, max_rounds: Optional[int]) -> list[dict]:
    """``max_rounds`` rounds, or rounds until the next one would overrun
    ``budget_s`` (at least one)."""
    runs: list[dict] = []
    started = perf_counter()
    number = 0
    while True:
        runs.extend(launch.round(number))
        number += 1
        elapsed = perf_counter() - started
        if max_rounds:
            done = number >= max_rounds
        else:
            done = elapsed + elapsed / number > budget_s
        if done:
            return runs


# ===================================================================== #
# The traced pass: one round under repro.trace and the timed storage,
# then the direct probes.
# ===================================================================== #


def scan_trace(trace: Any) -> dict:
    """What the per-layer metrics need from one run's recorder — event
    counts by ``category/name`` and the (rare) events the recovery row and
    the wave timing are read from — so the recorder itself can be dropped."""
    counts: Counter = Counter()
    kept = []
    for event in trace:
        counts[f"{event.category}/{event.name}"] += 1
        if event.category in ("ckpt", "store", "fail", "detect", "recovery") or (
            event.category == "proto" and event.name in ("restore", "replay_end")
        ):
            kept.append(event)
    return {"counts": counts, "events": kept, "total": len(trace), "dropped": trace.dropped}


def select(events: list, category: str, name: str) -> list:
    return [e for e in events if e.category == category and e.name == name]


def traced_pass(launch: Launch) -> tuple[list[dict], dict]:
    spans = launch.spans
    runs = launch.round(0, traced=True)
    by_name = {r["run"]: r for r in runs}
    layer: dict = {}

    def run_id(name: str) -> str:
        return f"{launch.workload.name}/{name}/{by_name[name]['round']}"

    def core_counts() -> dict:
        counts = by_name["v0"]["trace"]["counts"]
        return {"simmpi.slices": counts["sched/grant"], "simmpi.blocks": counts["sched/block"]}

    def waves() -> dict:
        trace = by_name["v3"]["trace"]
        requested: dict[int, float] = {}
        for event in select(trace["events"], "ckpt", "wave_request"):
            requested.setdefault(event.epoch, event.t)
        lengths = [
            event.t - requested[event.epoch]
            for event in select(trace["events"], "store", "commit")
            if event.epoch in requested
        ]
        return {
            "protocol.wave_virtual_s": statistics.fmean(lengths),
            "trace.events": trace["total"],
            "trace.dropped": trace["dropped"],
            "traced_v3_wall_s": by_name["v3"]["wall"] * by_name["v3"]["scale"],
        }

    def recovery_row() -> dict:
        events = by_name["recovery"]["trace"]["events"]

        def times(category: str, name: str) -> list[float]:
            return [event.t for event in select(events, category, name)]

        kill = times("fail", "kill")[0]
        restart = next(
            e.t for e in select(events, "recovery", "attempt_begin") if e.attempt == 1
        )
        restored = max(times("proto", "restore"))
        return {
            "runtime.lost_work_virtual_s":
                kill - max(t for t in times("store", "commit") if t <= kill),
            "runtime.detect_virtual_s": times("detect", "suspect")[0] - kill,
            "runtime.restore_virtual_s": restored - restart,
            "runtime.replay_virtual_s": max(times("proto", "replay_end")) - restored,
        }

    def storage_spans() -> dict:
        if not spans.count(run_id("v3"), "statesave."):
            raise LookupError("the traced V3 run recorded no storage spans")

        def total(run: str, prefix: str) -> float:
            return spans.total(run_id(run), prefix) * by_name[run]["scale"]

        def self_total(run: str, prefix: str) -> float:
            return spans.self_total(run_id(run), prefix) * by_name[run]["scale"]

        return {
            "statesave.write_state_s": total("v3", "statesave.write_state"),
            "statesave.write_log_s": total("v3", "statesave.write_log"),
            "statesave.read_state_s": total("recovery", "statesave.read_state"),
            "statesave.read_log_s": total("recovery", "statesave.read_log"),
            "statesave.commit_gc_s":
                total("v3", "statesave.commit") + total("v3", "statesave.gc"),
            "statesave.calls": spans.count(run_id("v3"), "statesave."),
            "statesave.self_s": self_total("v3", "statesave."),
            "ckpt.save_s": total("v3", "ckpt.save"),
            "ckpt.load_s": total("recovery", "ckpt.load"),
            "ckpt.collect_s": total("v3", "ckpt.collect"),
            "ckpt.backend_s": total("v3", "backend."),
            "ckpt.self_s": self_total("v3", "ckpt.save") + self_total("recovery", "ckpt.load"),
            "v2_write_state_s": total("v2", "statesave.write_state"),
        }

    def store_counters() -> dict:
        store = by_name["v3"]["storage"].store
        return {
            "ckpt.logical_bytes": store.logical_bytes,
            "ckpt.stored_bytes": store.bytes_written,
            "ckpt.stored_per_logical": store.bytes_written / store.logical_bytes,
            "ckpt.chunks_written": store.chunks_written,
            "ckpt.chunks_reused": store.chunks_reused,
            "ckpt.reuse_ratio":
                store.chunks_reused / (store.chunks_reused + store.chunks_written),
        }

    def ckpt_rates() -> dict:
        storage = by_name["v3"]["storage"]
        spans.run_id = f"{launch.workload.name}/probes/t{launch.index}"
        state = storage.read_state(0, storage.committed_epoch())
        return checkpoint_rates(state)

    if any(record["error"] is not None for record in runs):
        # A failed traced run has nothing to read per-layer numbers from.
        return runs, layer
    layer.update(launch.probe("trace.v0", core_counts))
    layer.update(launch.probe("trace.v3", waves))
    layer.update(launch.probe("trace.recovery", recovery_row))
    layer.update(launch.probe("spans.storage", storage_spans))
    layer.update(launch.probe("ckpt.counters", store_counters))
    layer.update(launch.probe("ckpt.rates", ckpt_rates))
    layer.update(launch.probe("simmpi.ring", lambda: ring_probe(launch)))
    layer.update(launch.probe("simmpi.allreduce", lambda: allreduce_probe(launch)))
    return runs, layer


def median_seconds(fn: Callable[[], Any]) -> float:
    """Median of ``PROBE_REPEATS`` timings of ``fn``, at reference speed."""

    def repeat() -> float:
        samples = []
        for _ in range(PROBE_REPEATS):
            started = perf_counter()
            fn()
            samples.append(perf_counter() - started)
        return statistics.median(samples)

    median, _, scale = scaled(repeat)
    return median * scale


def checkpoint_rates(state: Any) -> dict:
    """Direct ``repro.ckpt`` throughput on one real checkpoint (MB = 1e6
    bytes of pickled payload): first save into a fresh store, re-save of
    the same data as the next generation (all dedup), load, framed pickle."""
    from repro.ckpt.backends import MemoryBackend
    from repro.ckpt.store import CheckpointStore
    from repro.util.serialization import dumps_framed

    megabytes = len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6
    fresh = [CheckpointStore(MemoryBackend()) for _ in range(PROBE_REPEATS)]
    save_s = median_seconds(lambda: fresh.pop().save("probe", 1, state))
    store = CheckpointStore(MemoryBackend())
    store.save("probe", 1, state)
    generations = iter(range(2, 2 + PROBE_REPEATS))
    resave_s = median_seconds(lambda: store.save("probe", next(generations), state))
    load_s = median_seconds(lambda: store.load("probe", 1))
    pickle_s = median_seconds(lambda: dumps_framed(state))
    return {
        "ckpt.save_mb_s": megabytes / save_s,
        "ckpt.resave_mb_s": megabytes / resave_s,
        "ckpt.load_mb_s": megabytes / load_s,
        "ckpt.pickle_mb_s": megabytes / pickle_s,
    }


def core_probe(launch: Launch, main: Callable) -> float:
    """Median wall of a no-compute generator main at the workload's rank
    count under V0: the simulator core without the application."""
    config = RunConfig(
        nprocs=launch.workload.nprocs, seed=launch.seed, variant=Variant.UNMODIFIED,
        **launch.workload.config,
    )
    return median_seconds(lambda: launch.session.run(main, config))


def ring_probe(launch: Launch) -> dict:
    nprocs = launch.workload.nprocs
    laps = max(1, launch.probe_messages // nprocs)

    def ring(ctx):
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        for lap in range(laps):
            yield from ctx.mpi.co_send(lap, right, tag=1)
            yield from ctx.mpi.co_recv(source=left, tag=1)
        return ctx.rank

    return {"simmpi.ring_us_per_msg": core_probe(launch, ring) / (laps * nprocs) * 1e6}


def allreduce_probe(launch: Launch) -> dict:
    from repro.simmpi.op import SUM

    nprocs = launch.workload.nprocs
    # A butterfly allreduce is nprocs * log2(nprocs) messages.
    calls = max(1, launch.probe_messages // (nprocs * max(1, nprocs.bit_length() - 1)))

    def allreduce(ctx):
        total = 0
        for _ in range(calls):
            total = yield from ctx.mpi.co_allreduce(1, SUM)
        return total

    return {"simmpi.allreduce_us_per_call": core_probe(launch, allreduce) / calls * 1e6}


# ===================================================================== #


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: the rusage high-water mark
    survives ``exec``, so the child of an orchestrator that has grown past
    the child's own peak would report the orchestrator's."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    catalogue = QUICK_WORKLOADS if job["quick"] else WORKLOADS
    launch = Launch(catalogue[job["workload"]], job)
    layer = set_up(launch)
    print("ready", flush=True)
    # Measured after ``ready`` so the kernel is not part of set-up itself.
    setup_scale = REFERENCE_S / statistics.median(kernel() for _ in range(3))
    for name in ("precompiler.compile_s", "check.verify_s"):
        if name in layer:
            layer[name] *= setup_scale

    runs: list[dict] = []
    if job["untraced"]:
        runs.extend(untraced_rounds(launch, job["budget_s"], job["max_rounds"]))
    untraced = len(runs)
    if job["traced"]:
        traced_runs, traced_layer = traced_pass(launch)
        runs.extend(traced_runs)
        layer.update(traced_layer)
        if job["spans_path"]:
            with open(job["spans_path"], "w") as fh:
                json.dump({"workload": launch.workload.name, "spans": launch.spans.as_records()}, fh)
    for record in runs:
        for local in ("results", "trace", "storage"):  # not for the pipe
            record.pop(local, None)
    result = {
        "launch": launch.index,
        "runs": runs,
        "untraced_runs": untraced,
        "setup_scale": setup_scale,
        "exact": launch.exact,
        "v0_results": launch.v0_results,
        "layer": layer,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
