"""The checker wired into its consumers: strict compiles, the Session
``check=`` knob, and chaos-campaign preflight."""

import importlib
import sys

import pytest

import repro
from repro import RunConfig, Session
from repro.api.registry import _REGISTRY
from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.check import check_functions
from repro.check.driver import preflight
from repro.errors import CheckError, ConfigError
from repro.precompiler.api import Precompiler


# --------------------------------------------------------------------- #
# Precompiler.compile(strict=...)
# --------------------------------------------------------------------- #

def _conditional_collective(ctx):
    x = 1.0
    ctx.potential_checkpoint()
    if ctx.rank == 0:
        x = ctx.allreduce(x, op="sum")
    return x


class TestStrictCompile:
    def test_strict_raises_check_error(self):
        with pytest.raises(CheckError) as info:
            Precompiler([_conditional_collective]).compile(strict=True)
        assert any(d.code == "RPR014" for d in info.value.diagnostics)

    def test_default_compile_attaches_diagnostics(self):
        unit = Precompiler([_conditional_collective]).compile()
        assert any(d.code == "RPR014" for d in unit.diagnostics)

    def test_strict_diagnostics_match_the_cli_checker(self):
        # The acceptance contract: strict compile fails with the same
        # diagnostics repro-check prints for the same functions.
        with pytest.raises(CheckError) as info:
            Precompiler([_conditional_collective]).compile(strict=True)
        standalone = check_functions([_conditional_collective])
        assert [
            (d.code, d.span.line, d.function) for d in info.value.diagnostics
        ] == [
            (d.code, d.span.line, d.function) for d in standalone.errors
        ]

    def test_clean_unit_compiles_strict_with_no_findings(self):
        def clean(ctx):
            total = 0.0
            for i in range(4):
                ctx.potential_checkpoint()
                total = ctx.allreduce(total + i, op="sum")
            return total

        unit = Precompiler([clean]).compile(strict=True)
        assert unit.diagnostics == ()


def _conditional_collective_generator(ctx):
    x = 1.0
    yield from ctx.co_potential_checkpoint()
    if ctx.rank == 0:
        x = yield from ctx.co_allreduce(x, op="sum")
    return x


class TestGeneratorMainsCheckedLikePlainOnes:
    def test_same_findings_as_the_plain_spelling(self):
        from repro.check import check_functions

        def codes(fn):
            return [d.code for d in check_functions([fn], target="t").errors]

        assert codes(_conditional_collective_generator) == codes(
            _conditional_collective
        ) != []


# --------------------------------------------------------------------- #
# Session.run / sweep check= knob
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
            Session().run(
                _global_mutating_app, RunConfig(nprocs=2), check="error"
            )
        assert any(d.code == "RPR030" for d in info.value.diagnostics)

    def test_config_level_is_the_default_knob(self):
        with pytest.raises(CheckError):
            Session().run(
                _global_mutating_app, RunConfig(nprocs=2, check="error")
            )

    def test_warn_level_prints_and_runs(self, capsys):
        outcome = Session().run(
            _global_mutating_app, RunConfig(nprocs=2), check="warn"
        )
        assert outcome.results  # the run still happened
        assert "RPR030" in capsys.readouterr().err
        sys.modules.pop("check_probe", None)

    def test_clean_app_passes_error_level(self):
        outcome = Session().run(
            _clean_session_app, RunConfig(nprocs=2), check="error"
        )
        assert outcome.results

    def test_sweep_checks_once_up_front(self):
        with pytest.raises(CheckError):
            Session().sweep(
                _global_mutating_app,
                RunConfig(nprocs=2),
                variants=("full",),
                check="error",
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
        outcome = Session().run(
            ns["sourceless"], RunConfig(nprocs=2), check="error"
        )
        assert outcome.results

    def test_registered_apps_pass_error_level(self):
        cfg = RunConfig(nprocs=2, checkpoint_interval=0.002)
        outcome = Session().run("dense_cg", cfg, check="error")
        assert outcome.results


# --------------------------------------------------------------------- #
# preflight / chaos campaigns
# --------------------------------------------------------------------- #

BROKEN_APP_SOURCE = '''\
"""A registered app the checker must reject (module-global mutation) —
but which still executes fine, so preflight=False can run it."""

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


class TestPreflight:
    def test_clean_apps_return_results(self):
        results = preflight(["dense_cg", "laplace"], level="error")
        assert [r.target for r in results] == ["app:dense_cg", "app:laplace"]
        assert all(r.ok for r in results)

    def test_broken_app_raises_with_diagnostics(self, broken_app):
        with pytest.raises(CheckError) as info:
            preflight([broken_app], level="error")
        codes = {d.code for d in info.value.diagnostics}
        assert "RPR030" in codes

    def test_warn_level_never_raises(self, broken_app):
        results = preflight([broken_app], level="warn")
        assert len(results) == 1 and not results[0].ok

    def test_campaign_preflights_its_app_matrix(self, broken_app):
        config = CampaignConfig(count=1, apps=(broken_app,))
        with pytest.raises(CheckError):
            run_campaign(config, parallel=False)

    def test_campaign_preflight_can_be_disabled(self, broken_app):
        # Opting out skips the static gate; the campaign then proceeds to
        # generate and simulate scenarios against the (broken) app.
        config = CampaignConfig(
            count=1, apps=(broken_app,), shrink_failures=False
        )
        report = run_campaign(config, parallel=False, preflight=False)
        assert len(report.verdicts) == 1
        _ = repro  # silence unused-import linters; repro.app used in fixture
