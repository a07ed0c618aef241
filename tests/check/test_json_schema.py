"""The versioned JSON output contract: ``repro.check/3`` payloads carry
suppression records alongside the diagnostics."""

import json
from pathlib import Path

import pytest

from repro.check.cli import main
from repro.check.diagnostics import SCHEMA

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def run_json(capsys):
    def run(argv):
        main(argv + ["--format", "json"])
        return json.loads(capsys.readouterr().out)

    return run


class TestPayloadSchema:
    def test_schema_is_versioned(self, run_json):
        payload = run_json([str(FIXTURES / "clean_app.py")])
        assert SCHEMA == "repro.check/3"
        assert payload["schema"] == SCHEMA
        assert payload["results"][0]["schema"] == SCHEMA

    def test_result_golden_shape(self, run_json):
        payload = run_json([str(FIXTURES / "clean_app.py")])
        result = payload["results"][0]
        assert sorted(result) == [
            "diagnostics", "functions", "ok", "schema",
            "suppressed", "target",
        ]
        assert result["ok"] is True
        assert result["diagnostics"] == []
        assert result["suppressed"] == []
        assert payload["failed_targets"] == []

    def test_diagnostic_record_fields(self, run_json):
        payload = run_json([str(FIXTURES / "vds_globals.py")])
        record = payload["results"][0]["diagnostics"][0]
        for key in ("code", "severity", "message", "hint",
                    "function", "analysis", "span"):
            assert key in record
        assert record["span"]["line"] > 0

    def test_suppressed_findings_are_recorded(self, run_json):
        payload = run_json([str(FIXTURES / "suppress_used.py")])
        result = payload["results"][0]
        assert result["ok"] is True
        assert result["diagnostics"] == []
        assert [d["code"] for d in result["suppressed"]] == ["RPR020"]
