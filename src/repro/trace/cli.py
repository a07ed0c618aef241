"""``repro-trace`` — record, view, convert and validate virtual-time traces.

Examples::

    # Run the laplace benchmark under V3, kill rank 1 mid-run, export both
    # formats and print the per-category summary.
    repro-trace record --app laplace --kill 1@0.004 \\
        --jsonl trace.jsonl --chrome trace.json

    # Text timeline of what just happened (or only the recovery story).
    repro-trace view trace.jsonl --limit 40
    repro-trace view trace.jsonl --categories fail,detect,recovery,proto

    # Chrome/Perfetto conversion + structural validation (the CI
    # trace-smoke recipe).
    repro-trace convert trace.jsonl trace.json
    repro-trace validate trace.json

Exit status: 0 on success; 1 when validation finds problems or a recorded
run does not complete.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from typing import Any, Optional, Sequence

from repro.trace.events import CATEGORIES
from repro.trace.export import (
    read_jsonl,
    render_timeline,
    summarize,
    validate_chrome,
    write_chrome,
    write_jsonl,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Virtual-time event tracing for the C3 simulator stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run a registered app with tracing armed and export"
    )
    record.add_argument("--app", default="laplace", help="registered app name")
    record.add_argument(
        "--variant", default="V3",
        help="V0-V3 or a variant spelling (unmodified/piggyback/no-app-state/full)",
    )
    record.add_argument("--nprocs", type=int, default=4, help="world size")
    record.add_argument("--seed", type=int, default=0, help="simulation seed")
    record.add_argument(
        "--interval", type=float, default=0.0015,
        help="virtual checkpoint interval (seconds)",
    )
    record.add_argument(
        "--detector-timeout", type=float, default=0.02,
        help="failure-detector timeout (virtual seconds)",
    )
    record.add_argument(
        "--kill", action="append", default=[], metavar="RANK@TIME",
        help="kill RANK at virtual TIME (repeatable, e.g. --kill 1@0.004)",
    )
    record.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="override an app parameter (repeatable, e.g. --param n=16)",
    )
    record.add_argument(
        "--buffer", type=int, default=0,
        help="ring-buffer capacity; 0 keeps every event (the default here)",
    )
    record.add_argument("--jsonl", default=None, help="write JSONL events here")
    record.add_argument(
        "--chrome", default=None,
        help="write Chrome trace-event JSON (Perfetto-loadable) here",
    )
    record.add_argument(
        "--timeline", action="store_true", help="print the full text timeline"
    )

    view = sub.add_parser("view", help="render a JSONL trace as text")
    view.add_argument("path", help="JSONL trace file (from record/--jsonl)")
    view.add_argument(
        "--limit", type=int, default=0, help="show only the last N events"
    )
    view.add_argument(
        "--categories", default=None,
        help=f"comma-separated filter (known: {','.join(CATEGORIES)})",
    )
    view.add_argument(
        "--summary", action="store_true",
        help="print per-category/per-event counts instead of the timeline",
    )

    convert = sub.add_parser(
        "convert", help="convert a JSONL trace to Chrome trace-event JSON"
    )
    convert.add_argument("path", help="JSONL trace file")
    convert.add_argument("out", help="Chrome JSON output path")

    validate = sub.add_parser(
        "validate", help="structurally validate a Chrome trace-event file"
    )
    validate.add_argument("path", help="Chrome trace-event JSON file")

    return parser


# --------------------------------------------------------------------- #


def _parse_kills(specs: Sequence[str]):
    from repro.simmpi.failures import FailureSchedule, KillEvent

    events = []
    for spec in specs:
        try:
            rank_s, time_s = spec.split("@", 1)
            events.append(KillEvent(time=float(time_s), rank=int(rank_s)))
        except ValueError:
            raise SystemExit(f"bad --kill spec {spec!r}; expected RANK@TIME")
    if not events:
        return FailureSchedule.none()
    return FailureSchedule(events=tuple(events))


def _parse_params(base: Any, specs: Sequence[str]) -> Any:
    if not specs:
        return base
    if base is None or not dataclasses.is_dataclass(base):
        raise SystemExit("--param requires an app with dataclass parameters")
    overrides = {}
    for spec in specs:
        try:
            key, value = spec.split("=", 1)
        except ValueError:
            raise SystemExit(f"bad --param spec {spec!r}; expected KEY=VALUE")
        try:
            overrides[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            overrides[key] = value
    try:
        return dataclasses.replace(base, **overrides)
    except TypeError as exc:
        raise SystemExit(f"bad --param override: {exc}")


def _cmd_record(args) -> int:
    from repro.api.registry import get_app
    from repro.runtime.config import RunConfig, Variant
    from repro.runtime.driver import run_with_recovery

    variant = Variant.coerce(args.variant)
    config = RunConfig(
        nprocs=args.nprocs,
        seed=args.seed,
        variant=variant,
        checkpoint_interval=args.interval if args.interval > 0 else None,
        detector_timeout=args.detector_timeout,
        trace=True,
        trace_buffer=args.buffer if args.buffer > 0 else None,
    )
    spec = get_app(args.app)
    app_main = spec.build(_parse_params(spec.default_params, args.param))
    outcome = run_with_recovery(app_main, config, failures=_parse_kills(args.kill))
    recorder = outcome.trace
    events = recorder.events

    if args.timeline:
        print(render_timeline(events))
        print()
    print(summarize(events))
    print()
    print(
        f"run: {len(outcome.attempts)} attempt(s), "
        f"{outcome.restarts} restart(s), "
        f"{outcome.checkpoints_committed} checkpoint(s) committed, "
        f"virtual time {outcome.total_virtual_time:.6f}s"
    )
    if recorder.dropped:
        print(
            f"warning: ring buffer dropped {recorder.dropped} event(s); "
            "use --buffer 0 for a full export", file=sys.stderr,
        )
    if args.jsonl:
        path = write_jsonl(events, args.jsonl)
        print(f"jsonl trace written to {path}")
    if args.chrome:
        path = write_chrome(events, args.chrome, process_name=f"repro-{args.app}")
        print(f"chrome trace written to {path} (load in ui.perfetto.dev)")
    return 0 if outcome.completed else 1


def _cmd_view(args) -> int:
    events = read_jsonl(args.path)
    if args.summary:
        print(summarize(events))
        return 0
    categories: Sequence[str] = ()
    if args.categories:
        categories = tuple(c for c in args.categories.split(",") if c)
        unknown = set(categories) - set(CATEGORIES)
        if unknown:
            print(
                f"unknown categories: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(CATEGORIES)})", file=sys.stderr,
            )
            return 1
    print(render_timeline(events, limit=args.limit, categories=categories))
    return 0


def _cmd_convert(args) -> int:
    events = read_jsonl(args.path)
    path = write_chrome(events, args.out)
    print(f"chrome trace written to {path} ({len(events)} events)")
    return 0


def _cmd_validate(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = validate_chrome(doc)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    n = len(doc.get("traceEvents", []))
    print(f"{args.path}: valid Chrome trace-event JSON ({n} entries)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "record": _cmd_record,
        "view": _cmd_view,
        "convert": _cmd_convert,
        "validate": _cmd_validate,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
