"""The diagnostic model: codes, severities, spans, renderers.

Every finding is a :class:`Diagnostic` with a stable ``RPR0xx`` code drawn
from the :data:`CODES` registry.  Codes are append-only: once published, a
code keeps its meaning forever (tools and CI fixtures key off them), and
retired codes are never reused.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional


#: Version tag for every machine-readable payload this package emits.
#: ``repro.check/2`` added suppression records and the
#: interprocedural/alias code families (RPR012/013/033/090);
#: ``repro.check/3`` adds the path-sensitive divergence code (RPR014).
#: Retiring a code keeps the tag: payloads only lose that code.
SCHEMA = "repro.check/3"


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings describe programs the protocol cannot recover
    correctly (or the precompiler cannot transform); ``WARNING`` findings
    are probable-but-not-certain hazards.
    """

    ERROR = "error"
    WARNING = "warning"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1}[self.value]


@dataclass(frozen=True)
class Span:
    """Where a diagnostic points: ``file:line:col`` (1-based column in
    rendered output; stored 0-based as ast gives it)."""

    file: str = "<unknown>"
    line: int = 0
    col: int = 0
    end_line: Optional[int] = None
    end_col: Optional[int] = None

    @classmethod
    def of(cls, node, file: str = "<unknown>") -> "Span":
        """Span of an AST node (line numbers as carried by the node, which
        the loaders shift to absolute file coordinates)."""
        return cls(
            file=file,
            line=getattr(node, "lineno", 0) or 0,
            col=getattr(node, "col_offset", 0) or 0,
            end_line=getattr(node, "end_lineno", None),
            end_col=getattr(node, "end_col_offset", None),
        )

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col + 1}"


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one stable diagnostic code."""

    code: str
    severity: Severity
    analysis: str
    title: str


def _codes(entries: Iterable[CodeInfo]) -> dict[str, CodeInfo]:
    out: dict[str, CodeInfo] = {}
    for entry in entries:
        if entry.code in out:
            raise ValueError(f"duplicate diagnostic code {entry.code}")
        out[entry.code] = entry
    return out


#: The stable code registry.  ``RPR00x`` = supported subset, ``RPR01x`` =
#: collective matching, ``RPR02x`` = unlogged nondeterminism, ``RPR03x`` =
#: VDS escape, ``RPR090`` = suppressions.  Every code from RPR010 to
#: RPR033 has a runtime witness (``tests/check/test_witnesses.py``).
#: Retired, never to be reused: RPR032 (closure capture), RPR034 (escape
#: through a callee), RPR040/041 (checkpoint placement advice) and
#: RPR050/051 (cross-module helpers the slicer cannot join).
CODES: dict[str, CodeInfo] = _codes([
    CodeInfo("RPR001", Severity.ERROR, "supported-subset",
             "checkpointable call inside try"),
    CodeInfo("RPR002", Severity.ERROR, "supported-subset",
             "checkpointable call inside with"),
    CodeInfo("RPR003", Severity.ERROR, "supported-subset",
             "suspending call inside nested scope"),
    CodeInfo("RPR004", Severity.ERROR, "supported-subset",
             "checkpointable call in short-circuit position"),
    CodeInfo("RPR005", Severity.ERROR, "supported-subset",
             "async construct in checkpoint-reaching function"),
    CodeInfo("RPR006", Severity.ERROR, "supported-subset",
             "generator in checkpoint-reaching function"),
    CodeInfo("RPR007", Severity.ERROR, "supported-subset",
             "global/nonlocal binding in unit function"),
    CodeInfo("RPR008", Severity.ERROR, "supported-subset",
             "loop-else containing checkpointable call"),
    CodeInfo("RPR010", Severity.ERROR, "collective-matching",
             "conditional collective sequence"),
    CodeInfo("RPR011", Severity.WARNING, "collective-matching",
             "early exit may skip later collectives"),
    CodeInfo("RPR012", Severity.ERROR, "collective-sequencing",
             "rank-divergent loop executes collectives"),
    CodeInfo("RPR013", Severity.WARNING, "collective-sequencing",
             "unmatched point-to-point protocol"),
    CodeInfo("RPR014", Severity.ERROR, "collective-sequencing",
             "rank-divergent predicate guards collectives"),
    CodeInfo("RPR020", Severity.ERROR, "unlogged-nondeterminism",
             "unlogged nondeterministic call"),
    CodeInfo("RPR021", Severity.WARNING, "unlogged-nondeterminism",
             "host wall-clock read"),
    CodeInfo("RPR030", Severity.ERROR, "vds-escape",
             "module-global state mutation"),
    CodeInfo("RPR031", Severity.ERROR, "vds-escape",
             "mutable default argument"),
    CodeInfo("RPR033", Severity.ERROR, "vds-escape",
             "aliased mutation of non-local state"),
    CodeInfo("RPR090", Severity.WARNING, "suppressions",
             "unused suppression"),
])


@dataclass(frozen=True)
class Diagnostic:
    """One finding: stable code, severity, span, message, fix hint."""

    code: str
    message: str
    span: Span = field(default_factory=Span)
    function: str = ""
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    @property
    def severity(self) -> Severity:
        return CODES[self.code].severity

    @property
    def analysis(self) -> str:
        return CODES[self.code].analysis

    def sort_key(self) -> tuple:
        return (self.span.file, self.span.line, self.span.col,
                self.severity.rank, self.code)

    def render(self) -> str:
        where = self.span.render()
        fn = f" [{self.function}]" if self.function else ""
        lines = [
            f"{where}: {self.severity.value}[{self.code}]{fn}: {self.message}"
        ]
        if self.hint:
            lines.append(f"    hint: {self.hint}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["severity"] = self.severity.value
        out["analysis"] = self.analysis
        return out


def render_text(diagnostics: Iterable[Diagnostic]) -> str:
    """The CLI's text rendering: one (or two, with hint) lines per finding,
    sorted by file/line/severity."""
    return "\n".join(
        d.render() for d in sorted(diagnostics, key=Diagnostic.sort_key)
    )


def render_json(diagnostics: Iterable[Diagnostic], indent: int = 2) -> str:
    return json.dumps(
        [d.to_dict() for d in sorted(diagnostics, key=Diagnostic.sort_key)],
        indent=indent,
    )


@dataclass
class CheckResult:
    """What a check run produced over one target."""

    target: str
    diagnostics: tuple[Diagnostic, ...] = ()
    #: Functions that were actually analysed (the checked unit).
    functions: tuple[str, ...] = ()
    #: Findings silenced by ``# repro: ignore[...]`` comments.  They do not
    #: count toward ``ok`` but stay on the record (and in the JSON payload)
    #: so downstream consumers can audit what was waved through.
    suppressed: tuple[Diagnostic, ...] = ()

    def _by_severity(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is severity)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self._by_severity(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self._by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings do not fail a check)."""
        return not self.errors

    def render(self) -> str:
        if not self.diagnostics:
            note = ""
            if self.suppressed:
                note = f", {len(self.suppressed)} finding(s) suppressed"
            return (
                f"{self.target}: ok "
                f"({len(self.functions)} function(s) checked{note})"
            )
        counts = f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        if self.suppressed:
            counts += f", {len(self.suppressed)} suppressed"
        return f"{self.target}: {counts}\n{render_text(self.diagnostics)}"

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "target": self.target,
            "ok": self.ok,
            "functions": list(self.functions),
            "diagnostics": [
                d.to_dict()
                for d in sorted(self.diagnostics, key=Diagnostic.sort_key)
            ],
            "suppressed": [
                d.to_dict()
                for d in sorted(self.suppressed, key=Diagnostic.sort_key)
            ],
        }
