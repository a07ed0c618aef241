"""Campaign runner: invariants hold, reports are deterministic and portable."""

import json

import pytest

from repro.chaos import CampaignConfig, run_campaign
from repro.chaos.campaign import DEFAULT_PARAMS, ScenarioVerdict
from repro.chaos.generator import KIND_WEIGHTS
from repro.chaos.scenario import ChaosScenario, KillSpec
from repro.chaos.shrink import shrink_scenario


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(CampaignConfig(master_seed=13, count=20), parallel=False)


class TestSmallCampaign:
    def test_all_scenarios_pass(self, small_report):
        assert small_report.failures == [], small_report.summary()
        assert small_report.passed == 20

    def test_faults_actually_fired(self, small_report):
        """A campaign whose faults never land is testing nothing."""
        fired = sum(v.kills_fired + v.crashes_fired for v in small_report.verdicts)
        restarted = sum(v.restarts for v in small_report.verdicts)
        assert fired >= 15
        assert restarted >= 10

    def test_report_rerun_is_deterministic(self, small_report):
        again = run_campaign(CampaignConfig(master_seed=13, count=20), parallel=False)
        assert again.fingerprint() == small_report.fingerprint()

    def test_report_json_round_trips(self, small_report):
        data = json.loads(small_report.to_json())
        assert data["passed"] == 20
        assert len(data["verdicts"]) == 20
        rebuilt = ChaosScenario.from_dict(data["verdicts"][0]["scenario"])
        assert rebuilt == small_report.verdicts[0].scenario

    def test_summary_mentions_seed(self, small_report):
        assert "seed=13" in small_report.summary()

    def test_report_counts_are_sums_of_its_verdicts(self, small_report):
        data = small_report.to_dict()
        assert data["passed"] + data["failed"] == data["count"] == len(data["verdicts"])
        assert data["passed"] == sum(v["ok"] for v in data["verdicts"])
        assert sum(data["scenarios_by_kind"].values()) == data["count"]
        assert set(data["scenarios_by_kind"]) <= {kind for kind, _ in KIND_WEIGHTS}


class TestFailureReporting:
    def test_impossible_baseline_yields_violation_and_shrunk_schedule(self):
        """Force a failure (wrong baseline) and check the report carries a
        violation plus a shrinker-minimised schedule."""
        import pickle

        from repro.chaos.campaign import BaselineProbe, check_scenario

        scenario = ChaosScenario(
            name="forced", kind="multi_kill", app="laplace", variant="full",
            seed=3, nprocs=2,
            kills=(KillSpec(frac=0.3, rank=0), KillSpec(frac=0.5, rank=1)),
            overrides=(("checkpoint_interval", 0.0015),),
        )
        honest = check_scenario(scenario)
        assert honest.ok, honest.violations
        lying_probe = BaselineProbe(
            results=pickle.dumps(["wrong"]), horizon=0.006,
            checkpoints_committed=0,
        )
        verdict = check_scenario(scenario, probe=lying_probe)
        assert not verdict.ok
        assert any("diverge" in v for v in verdict.violations)
        shrunk = shrink_scenario(
            verdict.scenario,
            lambda s: check_scenario(s, probe=lying_probe),
        )
        # Both kills are irrelevant to the forced divergence: all dropped.
        assert shrunk.kills == ()

    def test_verdict_reads_its_run_outcome(self):
        from repro.chaos.campaign import _baseline_job, _run_once, check_scenario

        scenario = ChaosScenario(
            name="one-kill", kind="multi_kill", app="laplace", variant="full",
            seed=3, nprocs=2, kills=(KillSpec(frac=0.3, rank=0),),
            overrides=(("checkpoint_interval", 0.0015),),
        )
        config = CampaignConfig()
        cfg = scenario.config(config.resolved_base())
        params = config.resolved_params(scenario.app)
        probe = _baseline_job((scenario.app, cfg, params))
        verdict = check_scenario(scenario, config, probe)
        assert verdict.ok, verdict.violations
        outcome, _ = _run_once(scenario, cfg, params, probe.horizon)
        assert verdict.attempts == len(outcome.attempts) == verdict.restarts + 1 == 2
        assert verdict.kills_fired == 1 and verdict.crashes_fired == 0
        assert verdict.checkpoints_committed == outcome.checkpoints_committed
        assert verdict.virtual_time == outcome.total_virtual_time

    def test_verdict_dict_carries_shrunk(self):
        scenario = ChaosScenario(
            name="x", kind="multi_kill", app="laplace", variant="full",
            seed=1, nprocs=2,
        )
        verdict = ScenarioVerdict(
            scenario=scenario, ok=False, violations=("boom",), shrunk=scenario
        )
        data = verdict.to_dict()
        assert data["violations"] == ["boom"]
        assert data["shrunk"]["name"] == "x"


class TestAcceptanceCampaign:
    def test_200_scenarios_all_invariants_hold(self):
        """The PR's acceptance gate: a fixed-seed campaign of 200 generated
        scenarios across V1-V3 x {laplace, dense_cg} passes failure-free
        equivalence, storage consistency and rerun determinism in every
        cell."""
        report = run_campaign(CampaignConfig(master_seed=7, count=200))
        assert len(report.verdicts) == 200
        assert report.failures == [], report.summary()
        kinds = {v.scenario.kind for v in report.verdicts}
        assert kinds == {k for k, _ in KIND_WEIGHTS}
        apps = {v.scenario.app for v in report.verdicts}
        assert apps == set(DEFAULT_PARAMS)
        variants = {v.scenario.variant for v in report.verdicts}
        assert variants == {"piggyback", "no-app-state", "full"}


class TestCampaignCliThroughFarm:
    def test_farm_dir_flag_caches_the_campaign(self, tmp_path, capsys):
        from repro.chaos.cli import main as chaos_main

        argv = [
            "--seed", "13", "--count", "2", "--serial",
            "--farm-dir", str(tmp_path / "farm"),
        ]
        assert chaos_main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "farm: 0 cache hits" in cold_out
        # Second invocation: every cell served from the cache.
        assert chaos_main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "(100.0%), 0 executed" in warm_out
