"""``repro-check`` — the static verifier's command line.

Targets are resolved in order: an existing path is checked as a source
file (a missing one ending in ``.py`` fails as ``no such file``); a
registered app name as an app; anything else as an importable module.
``--apps`` adds every registered application.  Exit status is 1 when any
error-severity finding survives (``--fail-on`` tightens or loosens that),
so the command slots straight into CI::

    repro-check src/repro/apps/dense_cg.py examples/quickstart.py
    repro-check --apps --format json
    repro-check dense_cg --fail-on warning

``--format json`` emits the versioned ``repro.check/3`` payload: every
result with its diagnostics and suppressed findings, plus the targets
that failed to run.  There is no rewriter: each diagnostic's hint names
the manual repair.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.check.diagnostics import SCHEMA, CheckResult
from repro.check.driver import check_app, check_module, check_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Static verification for checkpointable apps: supported "
            "subset, collective matching and sequencing, unlogged "
            "nondeterminism, VDS escape.  Each code from RPR010 to "
            "RPR033 guards a failure that a recovered run shows."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="source files, registered app names, or importable modules",
    )
    parser.add_argument(
        "--apps",
        action="store_true",
        help="also check every registered application",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that causes exit status 1 (default: error)",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print the diagnostic code registry and exit",
    )
    return parser


def _check_target(target: str) -> CheckResult:
    if os.path.exists(target):
        return check_path(target)
    if target.endswith(".py"):
        raise FileNotFoundError("no such file")
    try:
        return check_app(target)
    except Exception:
        return check_module(target)


def _fails(result: CheckResult, fail_on: str) -> bool:
    if fail_on == "never":
        return False
    if fail_on == "warning":
        return bool(result.errors or result.warnings)
    return bool(result.errors)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    opts = parser.parse_args(argv)

    if opts.list_codes:
        from repro.check.diagnostics import CODES

        for info in CODES.values():
            print(
                f"{info.code}  {info.severity.value:<7}  "
                f"{info.analysis:<22}  {info.title}"
            )
        return 0

    targets = list(opts.targets)
    if opts.apps:
        from repro.api.registry import list_apps

        targets.extend(
            name for name in sorted(list_apps()) if name not in targets
        )
    if not targets:
        parser.error("no targets (give paths/app names, or --apps)")

    results: list[CheckResult] = []
    broken: list[tuple[str, str]] = []
    for target in targets:
        try:
            results.append(_check_target(target))
        except Exception as exc:  # unreadable/unimportable target
            broken.append((target, f"{type(exc).__name__}: {exc}"))

    if opts.format == "json":
        payload = {
            "schema": SCHEMA,
            "results": [r.to_dict() for r in results],
            "failed_targets": [
                {"target": t, "error": e} for t, e in broken
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for result in results:
            print(result.render())
        for target, error in broken:
            print(f"{target}: check failed to run: {error}")
        if results:
            errors = sum(len(r.errors) for r in results)
            warnings = sum(len(r.warnings) for r in results)
            print(
                f"checked {len(results)} target(s): {errors} error(s), "
                f"{warnings} warning(s)"
            )
    if broken:
        return 2
    return int(any(_fails(r, opts.fail_on) for r in results))


if __name__ == "__main__":
    sys.exit(main())
