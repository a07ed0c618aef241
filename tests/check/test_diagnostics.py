"""The diagnostic model: code registry, spans, ordering, renderers."""

import json

import pytest

from repro.check import (
    CODES,
    CheckResult,
    Diagnostic,
    Severity,
    Span,
    render_json,
    render_text,
)


class TestRegistry:
    def test_codes_are_stable_shapes(self):
        for code, info in CODES.items():
            assert code.startswith("RPR") and len(code) == 6
            assert info.code == code
            assert info.analysis
            assert info.title

    def test_families_group_by_decade(self):
        assert all(
            CODES[c].analysis == "supported-subset"
            for c in CODES if c < "RPR010"
        )
        assert CODES["RPR010"].analysis == "collective-matching"
        assert CODES["RPR020"].analysis == "unlogged-nondeterminism"
        assert CODES["RPR030"].analysis == "vds-escape"
        assert CODES["RPR090"].analysis == "suppressions"

    def test_severity_ranks_order(self):
        assert Severity.ERROR.rank < Severity.WARNING.rank

    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Diagnostic(code="RPR999", message="nope")


class TestDiagnostic:
    def test_severity_and_analysis_come_from_registry(self):
        d = Diagnostic(code="RPR020", message="m")
        assert d.severity is Severity.ERROR
        assert d.analysis == "unlogged-nondeterminism"

    def test_render_is_file_line_col_and_hint(self):
        d = Diagnostic(
            code="RPR030",
            message="mutates global",
            span=Span(file="app.py", line=12, col=4),
            function="main",
            hint="pass it in",
        )
        text = d.render()
        assert text.splitlines()[0] == (
            "app.py:12:5: error[RPR030] [main]: mutates global"
        )
        assert "hint: pass it in" in text

    def test_sorting_is_by_location_then_severity(self):
        late = Diagnostic(code="RPR001", message="a", span=Span("f", 9, 0))
        early_warning = Diagnostic(code="RPR011", message="b", span=Span("f", 2, 0))
        early_error = Diagnostic(code="RPR010", message="c", span=Span("f", 2, 0))
        ordered = sorted(
            [late, early_warning, early_error], key=Diagnostic.sort_key
        )
        assert ordered == [early_error, early_warning, late]

    def test_to_dict_roundtrips_through_json(self):
        d = Diagnostic(code="RPR011", message="m", span=Span("f", 1, 0))
        payload = json.loads(render_json([d]))
        assert payload[0]["code"] == "RPR011"
        assert payload[0]["severity"] == "warning"
        assert payload[0]["span"]["line"] == 1


class TestCheckResult:
    def _mk(self, *codes):
        return CheckResult(
            target="t",
            diagnostics=tuple(
                Diagnostic(code=c, message="m", span=Span("f", i + 1, 0))
                for i, c in enumerate(codes)
            ),
            functions=("main",),
        )

    def test_ok_means_no_errors(self):
        assert self._mk().ok
        assert self._mk("RPR011").ok
        assert not self._mk("RPR020").ok

    def test_buckets_by_severity(self):
        r = self._mk("RPR020", "RPR011", "RPR001")
        assert {d.code for d in r.errors} == {"RPR020", "RPR001"}
        assert {d.code for d in r.warnings} == {"RPR011"}

    def test_render_counts(self):
        text = self._mk("RPR020", "RPR011").render()
        assert "1 error(s), 1 warning(s)" in text
        assert render_text(self._mk("RPR020").diagnostics) in text

    def test_clean_render_mentions_functions_checked(self):
        assert "ok (1 function(s) checked)" in self._mk().render()
