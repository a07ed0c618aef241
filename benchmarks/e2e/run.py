#!/usr/bin/env python3
"""The repo benchmark: four-variant overhead and recovery cost.

    python3 benchmarks/e2e/run.py [--seed 17] [--workload NAME]... [--out FILE]
    python3 benchmarks/e2e/run.py --quick
    python3 benchmarks/e2e/run.py --compare A.json B.json

Runs each workload of ``BENCHMARK.json`` in fresh child interpreters, one
at a time, pools their samples, checks every output, prints every metric
by name with its unit and writes one JSON record.  ``README.md`` beside
this file defines the metrics, the workloads and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
# ``PYTHONPATH=src`` is optional: the benchmark finds the package it
# measures relative to itself.
sys.path.insert(0, str(SRC))

from compare import compare_records, summarise  # noqa: E402
from workloads import QUICK_WORKLOADS, WORKLOADS, reference_error  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT_DIR = ROOT / "benchmarks" / "out" / "e2e"
SCHEMA = "repro.e2e/1"
#: Fresh interpreters per workload; the rounds are split among them, so
#: ``setup_s`` and ``peak_rss_mb`` get this many samples and
#: between-process variance is inside every sample set.
LAUNCHES = 5
#: A launch that outlives this is killed and counted as a failed operation.
LAUNCH_TIMEOUT_S = 120.0
WALL_OF = {
    "v0_wall_s": "v0", "v1_wall_s": "v1", "v2_wall_s": "v2", "v3_wall_s": "v3",
    "recovery_wall_s": "recovery",
}


# ===================================================================== #
# Launching children.
# ===================================================================== #


def launch(job: dict) -> tuple[Optional[dict], Optional[float], float]:
    """Run one child to completion.

    Returns ``(result, setup_s, measured_s)``: the child's result (None if
    it died), spawn → ``ready``, and ``ready`` → exit.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
    )
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip() == "ready"
        ready_at = perf_counter()
        tail = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    measured_s = perf_counter() - ready_at
    if proc.returncode != 0 or not ready:
        return None, None, measured_s
    return json.loads(tail.splitlines()[-1]), ready_at - started, measured_s


def measure(name: str, args: argparse.Namespace) -> dict:
    """Every launch of one workload; returns its record.

    The ``--seconds`` budget is shared: each launch gets an equal part of
    what is left and runs rounds until the next would overrun it — but at
    least one, so every metric has at least ``LAUNCHES`` samples.
    """
    launches = 1 if args.quick else LAUNCHES
    plain = {
        "workload": name, "quick": args.quick, "seed": args.seed,
        "fail_probe": args.fail_probe, "untraced": True, "traced": False,
        "max_rounds": 2 if args.quick else None, "spans_path": None,
    }
    traced = dict(plain, spans_path=str(OUT_DIR / f"{name}.spans.json"), traced=True)
    jobs = [dict(plain, launch=index) for index in range(launches)]
    if args.trace and args.quick:
        jobs[0] = dict(traced, launch=0)
    elif args.trace:
        jobs.append(dict(traced, launch=launches, untraced=False))

    results, setups, crashed = [], [], 0
    remaining = float(args.seconds)
    for job in jobs:
        job["budget_s"] = max(0.0, remaining) / max(1, launches - job["launch"])
        result, setup_s, measured_s = launch(job)
        if job["untraced"]:
            remaining -= measured_s
        if result is None:
            crashed += 1
            break  # the set is already failed; spend no more time on it
        result["traced_only"] = not job["untraced"]
        results.append(result)
        setups.append(setup_s)
    return build_record(name, args, results, setups, crashed)


# ===================================================================== #
# From launches to a workload record.
# ===================================================================== #


def build_record(
    name: str, args: argparse.Namespace, results: list[dict], setups: list[float], crashed: int
) -> dict:
    workload = (QUICK_WORKLOADS if args.quick else WORKLOADS)[name]
    failures = ["a launch died or timed out"] if crashed else []
    if not results:
        return {
            "definition": workload.definition(), "ops_attempted": crashed,
            "ops_failed": crashed, "failures": failures, "launches": 0, "rounds": 0,
            "end_to_end": {}, "per_layer": {}, "exact": {},
        }

    # Determinism across launches: every launch's exact facts equal the first's.
    exact = results[0]["exact"]
    for result in results[1:]:
        for run, facts in result["exact"].items():
            first = exact.setdefault(run, facts)
            drift = [k for k in sorted(set(first) | set(facts)) if first.get(k) != facts.get(k)]
            if drift:
                key = drift[0]
                fail_runs(
                    result, run,
                    f"exact metric drift across launches: {run}.{key} "
                    f"{first.get(key)!r} != {facts.get(key)!r}",
                )
    # The serial reference, once: every run already equals V0 bitwise.
    v0_results = next((r["v0_results"] for r in results if r["v0_results"]), None)
    wrong = reference_error(workload, v0_results) if v0_results else "no V0 run succeeded"
    launch_failures = crashed
    for result in results:
        if wrong:
            fail_runs(result, None, wrong)
        diagnostics = result["layer"].get("check.diagnostics")
        if diagnostics:
            launch_failures += 1
            failures.append(f"check_app reported {diagnostics} diagnostic(s)")

    runs = [run for result in results for run in result["runs"]]
    failures.extend(sorted({f"{r['run']}: {r['error']}" for r in runs if r["error"]}))
    untraced = [
        run for result in results for run in result["runs"][: result["untraced_runs"]]
        if run["error"] is None
    ]

    # Host times go in at reference speed (see speed.py); raw ones ride along.
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for metric, run in WALL_OF.items():
        raw[metric] = [r["wall"] for r in untraced if r["run"] == run]
        samples[metric] = [r["wall"] * r["scale"] for r in untraced if r["run"] == run]
    raw["setup_s"] = setups
    samples["setup_s"] = [s * r["setup_scale"] for s, r in zip(setups, results)]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in results if not r["traced_only"]]
    if not wrong:
        for metric, (run, fact) in {
            "v3_virtual_s": ("v3", "virtual_s"),
            "recovery_virtual_s": ("recovery", "virtual_s"),
            "v3_stored_bytes": ("v3", "stored_bytes"),
        }.items():
            # One value, seen identically by every correct run of the set.
            if fact in exact.get(run, {}):
                samples[metric] = [exact[run][fact]] * len(samples[f"{run}_wall_s"])
    end_to_end = {
        m["name"]: dict(
            summarise(samples.get(m["name"], [])),
            unit=m["unit"], samples=samples.get(m["name"], []),
            **({"raw_samples": raw[m["name"]]} if m["name"] in raw else {}),
        )
        for m in SPEC["end_to_end"]
    }

    layer_values = per_layer(end_to_end, exact, results, untraced)
    return {
        "definition": workload.definition(),
        "ops_attempted": len(runs) + len(results) + crashed,
        "ops_failed": sum(1 for r in runs if r["error"]) + launch_failures,
        "failures": failures,
        "launches": sum(1 for r in results if not r["traced_only"]),
        "rounds": len(samples["v0_wall_s"]),
        "end_to_end": end_to_end,
        "per_layer": {
            m["name"]: {"value": layer_values.get(m["name"]), "unit": m["unit"]}
            for m in SPEC["per_layer"]
        },
        "exact": exact,
    }


def fail_runs(result: dict, run: Optional[str], reason: str) -> None:
    """Mark a launch's runs (all, or those named ``run``) as failed."""
    for record in result["runs"]:
        if record["error"] is None and run in (None, record["run"]):
            record["error"] = reason


def per_layer(end_to_end: dict, exact: dict, results: list[dict], untraced: list[dict]) -> dict:
    """Every per-layer value that can be had; a missing input reads None.

    Differences of medians are the paper's own variant differencing;
    counts come from the (verified identical) exact facts of the untraced
    runs; ``t`` holds what the traced launch measured.
    """
    m = {run: end_to_end[metric]["median"] for metric, run in WALL_OF.items()}
    x = exact
    t: dict = {}
    for result in results:
        t.update({k: v for k, v in result["layer"].items() if k not in t})

    def launches_median(key: str) -> float:
        return statistics.median(r["layer"][key] for r in results if key in r["layer"])

    def attempt_median(key: str) -> float:
        return statistics.median(
            r["timings"][key] * r["scale"] for r in untraced if r["run"] == "recovery"
        )

    formulas = {
        "precompiler.compile_s": lambda: launches_median("precompiler.compile_s"),
        "check.verify_s": lambda: launches_median("check.verify_s"),
        "simmpi.messages": lambda: x["v0"]["messages"],
        "simmpi.bytes": lambda: x["v0"]["bytes"],
        "simmpi.virtual_s": lambda: x["v0"]["virtual_s"],
        "simmpi.us_per_slice": lambda: m["v0"] / t["simmpi.slices"] * 1e6,
        "simmpi.us_per_msg": lambda: m["v0"] / x["v0"]["messages"] * 1e6,
        "simmpi.msgs_per_s": lambda: x["v0"]["messages"] / m["v0"],
        "protocol.v1_extra_s": lambda: m["v1"] - m["v0"],
        "protocol.v1_overhead_pct": lambda: 100.0 * (m["v1"] - m["v0"]) / m["v0"],
        "protocol.msg_amplification": lambda: x["v1"]["messages"] / x["v0"]["messages"],
        "protocol.byte_amplification": lambda: x["v1"]["bytes"] / x["v0"]["bytes"],
        "protocol.us_per_app_msg": lambda: (m["v1"] - m["v0"]) / x["v0"]["messages"] * 1e6,
        "protocol.v2_extra_s": lambda: m["v2"] - m["v1"],
        "protocol.v2_overhead_pct": lambda: 100.0 * (m["v2"] - m["v1"]) / m["v0"],
        "protocol.waves": lambda: x["v3"]["waves"],
        "protocol.control_messages": lambda: x["v3"]["control_messages"],
        "protocol.control_msgs_per_wave":
            lambda: x["v3"]["control_messages"] / x["v3"]["waves"],
        "runtime.v3_extra_s": lambda: m["v3"] - m["v2"],
        "runtime.v3_overhead_pct": lambda: 100.0 * (m["v3"] - m["v2"]) / m["v0"],
        "runtime.capture_s": lambda: (m["v3"] - m["v2"])
            - (t["statesave.write_state_s"] - t["v2_write_state_s"]),
        "runtime.recovery_extra_s": lambda: m["recovery"] - m["v3"],
        "runtime.restarts": lambda: x["recovery"]["restarts"],
        "runtime.restored_epoch": lambda: x["recovery"]["restored_epoch"],
        "runtime.attempt0_wall_s": lambda: attempt_median("attempt0_wall_s"),
        "runtime.attempt1_wall_s": lambda: attempt_median("attempt1_wall_s"),
        "trace.overhead_ratio": lambda: t["traced_v3_wall_s"] / m["v3"],
    }
    for counter in ("late_logged", "early_recorded", "collective_results_logged", "nondet_logged"):
        formulas[f"protocol.{counter}"] = lambda c=counter: x["v3"][c]
    for counter in ("replayed_matches", "replayed_late", "replayed_collectives", "suppressed_sends"):
        formulas[f"protocol.{counter}"] = lambda c=counter: x["recovery"][c]
    for stage in ("piggyback", "classifier", "message-log", "result-log", "replay", "checkpoint"):
        # From the recovery run: the one run that drives all six stages.
        formulas[f"protocol.stage_calls.{stage}"] = (
            lambda s=stage: x["recovery"][f"stage_calls.{s}"]
        )

    values = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        try:
            values[name] = formulas[name]() if name in formulas else t.get(name)
        except (KeyError, TypeError, ZeroDivisionError, statistics.StatisticsError):
            values[name] = None
    return values


# ===================================================================== #
# Output.
# ===================================================================== #


def fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(name: str, record: dict, trace: bool) -> None:
    print(f"\n== {name}: {record['rounds']} rounds in {record['launches']} launches, "
          f"ops_attempted={record['ops_attempted']} ops_failed={record['ops_failed']}")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    print(f"   {'end-to-end metric':<24}{'unit':<8}{'median':>12}{'min':>12}"
          f"{'p25':>12}{'p75':>12}{'max':>12}{'n':>4}")
    for metric, s in record["end_to_end"].items():
        print(f"   {metric:<24}{s['unit']:<8}"
              + "".join(f"{fmt(s[k]):>12}" for k in ("median", "min", "p25", "p75", "max"))
              + f"{s['n']:>4}")
    if trace:
        print(f"   {'per-layer metric':<40}{'unit':<8}{'value':>14}")
        for metric, entry in record["per_layer"].items():
            print(f"   {metric:<40}{entry['unit']:<8}{fmt(entry['value']):>14}")


def contract_line(record: dict, trace: bool) -> str:
    """The one-object summary a driver reads off the last stdout line."""
    if trace:
        metrics = record["per_layer"]
    else:
        metrics = {
            metric: {"value": s["median"], "unit": s["unit"]}
            for metric, s in record["end_to_end"].items()
        }
    return json.dumps({
        "correct": record["ops_failed"] == 0,
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": metrics,
    })


def environment(args: argparse.Namespace) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a bare checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "launches": 1 if args.quick else LAUNCHES,
        "quick": args.quick,
        "trace": bool(args.trace),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=17,
                        help="feeds RunConfig.seed: scheduler interleaving and network jitter")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="untraced measuring time per workload, split among the launches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced pass and the per-layer metrics (default)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "record.json",
                        help="where the JSON record goes")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one launch, two rounds, shrunken workloads")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="apply the bounds of BENCHMARK.json to two records and exit")
    parser.add_argument("--fail-probe", metavar="LABEL",
                        help="test hook: make one per-layer probe raise (its metrics read null)")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        return compare_records(a, b, SPEC)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"schema": SCHEMA, "env": environment(args), "workloads": {}}
    for name in args.workload or [w["name"] for w in SPEC["workloads"]]:
        workload_record = measure(name, args)
        record["workloads"][name] = workload_record
        print_workload(name, workload_record, bool(args.trace))
        print(contract_line(workload_record, bool(args.trace)), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {args.out}", file=sys.stderr)
    return 1 if any(w["ops_failed"] for w in record["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
