"""The checker wired into its one gate: ``RunConfig.check`` of Session
runs and sweeps, which chaos campaigns pass through at their base
config's level.  The precompiler only compiles."""

import importlib
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import RunConfig, Session
from repro.api.registry import _REGISTRY
from repro.chaos.campaign import CampaignConfig, default_base_config, run_campaign
from repro.check import check_functions
from repro.errors import CheckError, ConfigError, DeadlockError
from repro.precompiler.api import PrecompiledApp, Precompiler
from repro.simmpi.op import SUM


def _conditional_collective(ctx):
    x = 1.0
    ctx.potential_checkpoint()
    if ctx.rank == 0:
        x = ctx.mpi.allreduce(x, SUM)
    return x


def _conditional_collective_generator(ctx):
    x = 1.0
    yield from ctx.co_potential_checkpoint()
    if ctx.rank == 0:
        x = yield from ctx.mpi.co_allreduce(x, SUM)
    return x


def _bare_app() -> PrecompiledApp:
    unit = Precompiler([_conditional_collective]).compile()
    return PrecompiledApp(unit, entry="_conditional_collective")


# --------------------------------------------------------------------- #
# The precompiler only compiles
# --------------------------------------------------------------------- #

class TestCompileOnlyCompiles:
    def test_strict_keyword_is_gone(self):
        with pytest.raises(TypeError):
            Precompiler([_conditional_collective]).compile(strict=True)

    def test_a_unit_with_check_errors_compiles(self):
        unit = Precompiler([_conditional_collective]).compile()
        assert not hasattr(unit, "diagnostics")
        assert unit.originals == (_conditional_collective,)

    def test_the_gate_refuses_with_the_cli_checkers_diagnostics(self):
        # The gate refuses the compiled unit with the same diagnostics
        # repro-check prints for the functions it was compiled from.
        with pytest.raises(CheckError) as info:
            Session().run(_bare_app(), RunConfig(nprocs=2, check="error"))
        standalone = check_functions([_conditional_collective])
        assert any(d.code == "RPR014" for d in standalone.errors)
        assert [
            (d.code, d.span.line, d.function) for d in info.value.diagnostics
        ] == [
            (d.code, d.span.line, d.function) for d in standalone.errors
        ]

    def test_clean_unit_has_no_findings(self):
        def clean(ctx):
            total = 0.0
            for i in range(4):
                ctx.potential_checkpoint()
                total = ctx.allreduce(total + i, op="sum")
            return total

        unit = Precompiler([clean]).compile()
        assert check_functions(unit.originals).diagnostics == ()

    def test_compiling_a_catalogue_unit_leaves_the_checker_unloaded(self):
        probe = textwrap.dedent("""
            import sys
            import repro.apps.dense_cg as dense_cg
            dense_cg.unit()
            print("repro.check" in sys.modules)
        """)
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert out.stdout.strip() == "False"


class TestGeneratorMainsCheckedLikePlainOnes:
    def test_same_findings_as_the_plain_spelling(self):
        def codes(fn):
            return [d.code for d in check_functions([fn], target="t").errors]

        assert codes(_conditional_collective_generator) == codes(
            _conditional_collective
        ) != []


# --------------------------------------------------------------------- #
# RunConfig.check under Session.run / sweep
# --------------------------------------------------------------------- #

def _clean_session_app(ctx):
    from repro.simmpi.op import SUM

    total = 0.0
    for i in range(3):
        yield from ctx.co_potential_checkpoint()
        total = yield from ctx.mpi.co_allreduce(total + float(ctx.rank), SUM)
    return total


def _global_mutating_app(ctx):
    from repro.simmpi.op import SUM

    sys.modules["check_probe"] = None  # store through a non-local root
    yield from ctx.co_potential_checkpoint()
    return (yield from ctx.mpi.co_allreduce(1.0, SUM))


class TestSessionCheckKnob:
    def test_config_rejects_bad_level(self):
        with pytest.raises(ConfigError, match="check must be"):
            RunConfig(nprocs=2, check="loud")

    def test_off_by_default(self):
        outcome = Session().run(_global_mutating_app, RunConfig(nprocs=2))
        assert outcome.results
        sys.modules.pop("check_probe", None)

    def test_error_level_refuses_broken_app(self):
        with pytest.raises(CheckError) as info:
            Session().run(_global_mutating_app, RunConfig(nprocs=2, check="error"))
        assert any(d.code == "RPR030" for d in info.value.diagnostics)

    def test_warn_level_prints_and_runs(self, capsys):
        outcome = Session().run(_global_mutating_app, RunConfig(nprocs=2, check="warn"))
        assert outcome.results  # the run still happened
        assert "RPR030" in capsys.readouterr().err
        sys.modules.pop("check_probe", None)

    def test_clean_app_passes_error_level(self):
        outcome = Session().run(_clean_session_app, RunConfig(nprocs=2, check="error"))
        assert outcome.results

    def test_sweep_checks_once_up_front(self):
        with pytest.raises(CheckError):
            Session().sweep(
                _global_mutating_app,
                RunConfig(nprocs=2, check="error"),
                variants=("full",),
            )

    def test_sourceless_function_is_skipped_not_crashed(self):
        # A REPL/exec-defined app has no retrievable source; the checker
        # skips it (per the _run_check contract) instead of erroring out.
        ns: dict = {}
        exec(
            "def sourceless(ctx):\n"
            "    from repro.simmpi.op import SUM\n"
            "    yield from ctx.co_potential_checkpoint()\n"
            "    return (yield from ctx.mpi.co_allreduce(1.0, SUM))\n",
            ns,
        )
        outcome = Session().run(ns["sourceless"], RunConfig(nprocs=2, check="error"))
        assert outcome.results

    def test_bare_precompiled_app_runs_unchecked_when_off(self):
        with pytest.raises(DeadlockError):
            Session().run(_bare_app(), RunConfig(nprocs=2))

    def test_sweep_refuses_bare_precompiled_app_up_front(self, monkeypatch):
        import repro.api.session as session_mod

        def no_rank_may_run(*args, **kwargs):
            raise AssertionError("a cell ran before the gate refused the app")

        monkeypatch.setattr(session_mod, "run_with_recovery", no_rank_may_run)
        with pytest.raises(CheckError):
            Session().sweep(
                _bare_app(), RunConfig(nprocs=2, check="error"),
                variants=("V0", "V3"), parallel=False,
            )

    def test_warn_level_prints_the_findings_then_runs_bare_precompiled_app(
        self, capsys
    ):
        app = _bare_app()
        with pytest.raises(DeadlockError):
            Session().run(app, RunConfig(nprocs=2, check="warn"))
        expected = check_functions(
            app.unit.originals, target=Session._app_name(app)
        )
        assert expected.errors
        assert capsys.readouterr().err == expected.render() + "\n"

    def test_registered_apps_pass_error_level(self):
        cfg = RunConfig(nprocs=2, checkpoint_interval=0.002, check="error")
        outcome = Session().run("dense_cg", cfg)
        assert outcome.results


# --------------------------------------------------------------------- #
# chaos campaigns: the same gate, at the base config's level
# --------------------------------------------------------------------- #

BROKEN_APP_SOURCE = '''\
"""A registered app the checker must reject (module-global mutation) —
but which still executes fine, so a campaign with the gate off can run it."""

import repro
from repro.simmpi.op import SUM

STATS = {}


@repro.app(name="broken_check_app")
def broken_check_app(ctx):
    total = 0.0
    for i in range(3):
        yield from ctx.co_potential_checkpoint()
        total = yield from ctx.mpi.co_allreduce(total + float(ctx.rank), SUM)
    STATS["total"] = total
    return total
'''


@pytest.fixture()
def broken_app(tmp_path, monkeypatch):
    mod = tmp_path / "broken_check_mod.py"
    mod.write_text(BROKEN_APP_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.import_module("broken_check_mod")
    yield "broken_check_app"
    _REGISTRY.pop("broken_check_app", None)
    sys.modules.pop("broken_check_mod", None)


def _base(check: str) -> RunConfig:
    return replace(default_base_config(), check=check)


class TestCampaignGate:
    def test_preflight_is_gone(self):
        import repro.check

        assert "preflight" not in repro.check.__all__
        assert not hasattr(repro.check, "preflight")
        with pytest.raises(TypeError):
            run_campaign(CampaignConfig(count=1), parallel=False, preflight=False)

    def test_clean_apps_pass_the_error_gate(self):
        config = CampaignConfig(
            count=1, apps=("dense_cg", "laplace"), base_config=_base("error"),
            shrink_failures=False,
        )
        report = run_campaign(config, parallel=False)
        assert len(report.verdicts) == 1

    def test_default_campaign_refuses_broken_app(self, broken_app):
        # The default base config gates at "error".
        config = CampaignConfig(count=1, apps=(broken_app,))
        with pytest.raises(CheckError) as info:
            run_campaign(config, parallel=False)
        assert "RPR030" in {d.code for d in info.value.diagnostics}

    def test_gate_off_runs_broken_app(self, broken_app):
        # With the gate off the campaign proceeds to generate and simulate
        # scenarios against the (broken) app.
        config = CampaignConfig(
            count=1, apps=(broken_app,), base_config=_base("off"),
            shrink_failures=False,
        )
        report = run_campaign(config, parallel=False)
        assert len(report.verdicts) == 1
