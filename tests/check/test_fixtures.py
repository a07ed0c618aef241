"""The seeded-violation corpus: every fixture must produce *exactly* its
inline ``# CHECK: RPRxxx`` expectations — same codes, same lines — and the
corpus as a whole must exercise every registered diagnostic code.

A fixture that pulls a sibling module into its unit (via the v3
import-graph slicer) declares it with ``# ALSO-CHECKS: <sibling>.py``:
the sibling's own marks are then expected to fire *again* through the
joined unit, with spans still pointing into the sibling file."""

import re
from pathlib import Path

import pytest

from repro.check import CODES, check_path

FIXTURE_DIR = Path(__file__).parent / "fixtures"
FIXTURES = sorted(FIXTURE_DIR.glob("*.py"))

CHECK_RE = re.compile(r"# CHECK: (RPR\d{3})")
ALSO_RE = re.compile(r"# ALSO-CHECKS: (\S+)")


def expected_marks(path: Path) -> list[tuple[str, int]]:
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for match in CHECK_RE.finditer(line):
            out.append((match.group(1), lineno))
    return sorted(out)


def also_checked(path: Path) -> list[Path]:
    return [path.parent / name for name in ALSO_RE.findall(path.read_text())]


def test_corpus_exists():
    assert len(FIXTURES) >= 10


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixture_produces_exactly_expected_diagnostics(path):
    siblings = also_checked(path)
    result = check_path(str(path))
    got = sorted((d.code, d.span.line) for d in result.diagnostics)
    expected = sorted(
        expected_marks(path)
        + [mark for sib in siblings for mark in expected_marks(sib)]
    )
    assert got == expected
    allowed_files = {str(path)} | {str(sib) for sib in siblings}
    for diag in result.diagnostics:
        assert diag.span.file in allowed_files
        assert diag.span.col >= 0
        assert diag.function  # every finding names its function
        assert diag.hint  # and carries a fix hint


def test_corpus_covers_every_registered_code():
    fired = {
        code for path in FIXTURES for code, _ in expected_marks(path)
    }
    assert fired == set(CODES)


def test_every_analysis_has_two_fixtures():
    by_analysis: dict[str, set[str]] = {}
    for path in FIXTURES:
        marks = expected_marks(path)
        for code, _ in marks:
            by_analysis.setdefault(CODES[code].analysis, set()).add(path.stem)
    for analysis, fixtures in by_analysis.items():
        assert len(fixtures) >= 2, (
            f"analysis {analysis!r} is seeded by only {fixtures}"
        )


#: What each formerly auto-fixed code's hint must spell out: the manual
#: repair, and for the escape family the caveat that a registered global
#: keeps one process-wide copy for all ranks.
REPAIR_HINTS = {
    "RPR020": ("ctx.rng", "ctx.nondet(lambda: ...)"),
    "RPR021": ("ctx.now()",),
    "RPR030": ("thread the object through parameters/locals",
               "one process-wide copy for all ranks"),
    "RPR031": ("=None and create the object inside the body",),
    "RPR033": ("thread the object through parameters/locals",
               "one process-wide copy for all ranks"),
}


@pytest.fixture(scope="module")
def corpus_diagnostics():
    return [
        (path, diag)
        for path in FIXTURES
        for diag in check_path(str(path)).diagnostics
    ]


@pytest.mark.parametrize("code", sorted(REPAIR_HINTS))
def test_repair_hints_name_the_manual_fix(code, corpus_diagnostics):
    hits = [(p, d) for p, d in corpus_diagnostics if d.code == code]
    assert hits, f"no corpus fixture fires {code}"
    for path, diag in hits:
        for phrase in REPAIR_HINTS[code]:
            assert phrase in diag.hint, (path.name, diag.render())
