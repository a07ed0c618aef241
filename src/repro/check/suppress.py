"""``# repro: ignore[RPR0xx]`` suppression comments.

Two scopes:

* **line** — ``x = random.random()  # repro: ignore[RPR020]`` silences the
  listed codes on that source line only;
* **file** — a ``# repro: ignore-file[RPR021]`` comment anywhere in the
  file silences the listed codes for the whole file.

Multiple codes separate with commas: ``# repro: ignore[RPR020,RPR021]``.
Suppressed findings are not dropped — they move to the result's
``suppressed`` record (and the JSON payload) so reviewers can audit what
was waved through.  A suppression that silences nothing earns an
``RPR090`` warning of its own: stale suppressions hide future regressions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.check.diagnostics import Diagnostic

#: ``# repro: ignore[RPR020, RPR021]`` / ``# repro: ignore-file[RPR030]``.
SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*(ignore-file|ignore)\[([A-Z0-9,\s]+)\]"
)


@dataclass(frozen=True)
class Suppression:
    """One suppression comment (line- or file-scoped)."""

    file: str
    line: int
    col: int
    codes: tuple[str, ...]
    file_scope: bool

    def describe(self) -> str:
        kind = "ignore-file" if self.file_scope else "ignore"
        return f"# repro: {kind}[{','.join(self.codes)}]"


def find_suppressions(source: str, file: str) -> list[Suppression]:
    """Every suppression comment in one source file."""
    out: list[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in SUPPRESS_RE.finditer(text):
            codes = tuple(
                c.strip() for c in match.group(2).split(",") if c.strip()
            )
            if not codes:
                continue
            out.append(Suppression(
                file=file,
                line=lineno,
                col=match.start(),
                codes=codes,
                file_scope=(match.group(1) == "ignore-file"),
            ))
    return out


class SuppressionFilter:
    """Split diagnostics into kept/suppressed and track stale suppressions."""

    def __init__(self, suppressions: Iterable[Suppression]) -> None:
        self.suppressions = list(suppressions)
        self._used: set[tuple[Suppression, str]] = set()

    def _matching(self, d: Diagnostic) -> bool:
        hit = False
        for s in self.suppressions:
            if d.span.file != s.file or d.code not in s.codes:
                continue
            if s.file_scope or d.span.line == s.line:
                self._used.add((s, d.code))
                hit = True
        return hit

    def split(
        self, diagnostics: Iterable[Diagnostic]
    ) -> tuple[list[Diagnostic], list[Diagnostic]]:
        kept: list[Diagnostic] = []
        suppressed: list[Diagnostic] = []
        for d in diagnostics:
            (suppressed if self._matching(d) else kept).append(d)
        return kept, suppressed

    def unused(self) -> list[tuple[Suppression, str]]:
        """Every (suppression, code) pair that silenced nothing.  Call
        after :meth:`split` has seen all diagnostics."""
        out: list[tuple[Suppression, str]] = []
        for s in self.suppressions:
            for code in s.codes:
                if (s, code) not in self._used:
                    out.append((s, code))
        return out
