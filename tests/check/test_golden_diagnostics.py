"""Golden ``repro-check --format json`` records, pinned field by field.

``test_fixtures.py`` compares only ``(code, line)`` against each fixture's
inline marks; this suite pins the whole record the command line emits —
code, span (line, col, end), message, hint, function, severity, and which
findings were suppressed — for every fixture in ``fixtures/`` and for
``repro-check --apps examples/*.py`` (the shipped app catalogue).  Paths
are stored relative to the repository root.

The goldens in ``golden_diagnostics.json`` are regenerated only when a
diagnostic is *meant* to change::

    PYTHONPATH=src python tests/check/test_golden_diagnostics.py --regen
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.api.registry import list_apps
from repro.check.cli import main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).with_name("golden_diagnostics.json")
FIXTURES = sorted((ROOT / "tests" / "check" / "fixtures").glob("*.py"))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: What ``--apps`` checks in a fresh process: the shipped catalogue (other
#: tests register apps of their own).
CATALOGUE = sorted(
    name for name, spec in list_apps().items()
    if spec.module.startswith("repro.apps.")
)


def _relative(value):
    """``value`` with every absolute path under the repository root made
    relative to it."""
    if isinstance(value, dict):
        return {k: _relative(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_relative(v) for v in value]
    if isinstance(value, str) and value.startswith(f"{ROOT}/"):
        return value[len(str(ROOT)) + 1:]
    return value


def cli_records(argv):
    """``repro-check --format json`` over ``argv``: target → result record."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--format", "json", "--fail-on", "never", *argv])
    payload = _relative(json.loads(out.getvalue()))
    assert payload["failed_targets"] == []
    return {r["target"]: r for r in payload["results"]}


def observe():
    return {
        "fixtures": cli_records([str(p) for p in FIXTURES]),
        "catalogue": cli_records([*CATALOGUE, *(str(p) for p in EXAMPLES)]),
    }


@pytest.fixture(scope="module")
def observed():
    return observe()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("group", ["fixtures", "catalogue"])
def test_golden_covers_exactly_the_targets(group, observed, golden):
    assert sorted(observed[group]) == sorted(golden[group])


@pytest.mark.parametrize(
    "path", FIXTURES, ids=lambda p: p.stem
)
def test_fixture_records_match_golden(path, observed, golden):
    target = str(path.relative_to(ROOT))
    assert observed["fixtures"][target] == golden["fixtures"][target]


def test_catalogue_records_match_golden(observed, golden):
    assert observed["catalogue"] == golden["catalogue"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: python {sys.argv[0]} --regen")
    records = observe()
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, records.values()))} records to {GOLDEN_PATH}")
