"""The ``repro-check`` command line: target resolution, formats, exit codes."""

import json
from pathlib import Path

import pytest

from repro.check.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CLEAN = str(FIXTURES / "clean_app.py")
BROKEN = str(FIXTURES / "vds_globals.py")


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        assert main([CLEAN]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "0 error(s)" in out

    def test_errors_exit_one(self, capsys):
        assert main([BROKEN]) == 1
        out = capsys.readouterr().out
        assert "RPR030" in out

    def test_fail_on_never(self, capsys):
        assert main([BROKEN, "--fail-on", "never"]) == 0
        capsys.readouterr()

    def test_fail_on_warning(self, capsys):
        warn_file = str(FIXTURES / "nondet_clock.py")
        assert main([warn_file]) == 0  # warnings pass by default
        assert main([warn_file, "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_unresolvable_target_exits_two(self, capsys):
        assert main(["no/such/file_or_module.py"]) == 2
        assert "failed to run" in capsys.readouterr().out

    def test_missing_source_file_is_no_such_file(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.py")
        assert main([missing]) == 2
        out = capsys.readouterr().out
        assert f"{missing}: check failed to run: FileNotFoundError: no such file" in out
        assert "ModuleNotFoundError" not in out


class TestTargets:
    def test_registered_app_by_name(self, capsys):
        assert main(["dense_cg"]) == 0
        assert "app:dense_cg: ok" in capsys.readouterr().out

    def test_module_by_dotted_name(self, capsys):
        assert main(["repro.apps.laplace"]) == 0
        assert "repro.apps.laplace: ok" in capsys.readouterr().out

    def test_apps_flag_checks_whole_catalogue(self, capsys):
        assert main(["--apps"]) == 0
        out = capsys.readouterr().out
        for app in ("dense_cg", "laplace", "neurosys"):
            assert f"app:{app}: ok" in out


class TestFormats:
    def test_json_payload(self, capsys):
        assert main([BROKEN, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        result = payload["results"][0]
        assert result["ok"] is False
        codes = [d["code"] for d in result["diagnostics"]]
        assert codes == ["RPR030", "RPR030"]
        assert all(d["span"]["file"] == BROKEN for d in result["diagnostics"])

    def test_list_codes(self, capsys):
        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        assert "RPR001" in out and "RPR090" in out
        assert "supported-subset" in out and "suppressions" in out


class TestRemovedOptions:
    """The checker has no rewriter, SARIF exporter or result cache: their
    options are unknown to the parser, which exits with status 2."""

    @pytest.mark.parametrize("argv", [
        ["--fix"],
        ["--write"],
        ["--dry-run"],
        ["--cache-dir", "cache"],
        ["--format", "sarif"],
    ], ids=lambda argv: argv[-1] if argv[0] == "--format" else argv[0])
    def test_option_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([CLEAN, *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err
