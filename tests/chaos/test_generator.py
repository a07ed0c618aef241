"""Scenario generation: determinism, coverage, serialisation."""

import pytest

from repro.chaos import generate_campaign
from repro.chaos.generator import KIND_WEIGHTS
from repro.chaos.scenario import ChaosScenario, CrashSpec, KillSpec
from repro.errors import ConfigError
from repro.runtime.config import RunConfig, Variant


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        a = generate_campaign(11, 40)
        b = generate_campaign(11, 40)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_different_seed_differs(self):
        a = generate_campaign(11, 40)
        b = generate_campaign(12, 40)
        assert [s.to_dict() for s in a] != [s.to_dict() for s in b]


class TestCoverage:
    def test_all_kinds_appear(self):
        kinds = {s.kind for s in generate_campaign(3, 120)}
        assert kinds == {k for k, _ in KIND_WEIGHTS}

    def test_axes_respected(self):
        scenarios = generate_campaign(
            5, 60, apps=("laplace",), variants=("full",), nprocs_choices=(2,)
        )
        assert {s.app for s in scenarios} == {"laplace"}
        assert {s.variant for s in scenarios} == {"full"}
        assert {s.nprocs for s in scenarios} == {2}

    def test_paper_labels_select_variants(self):
        """``--variants V1,V3`` spellings normalise to the enum values."""
        scenarios = generate_campaign(5, 30, variants=("V1", "V3"))
        assert {s.variant for s in scenarios} == {"piggyback", "full"}

    def test_kind_filter(self):
        scenarios = generate_campaign(5, 20, kinds=("multi_kill",))
        assert len(scenarios) == 20
        assert {s.kind for s in scenarios} == {"multi_kill"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario kinds"):
            generate_campaign(5, 5, kinds=("nope",))

    def test_count_validated(self):
        with pytest.raises(ConfigError, match="count"):
            generate_campaign(5, 0)

    def test_every_kill_targets_a_live_rank(self):
        for s in generate_campaign(9, 150):
            for k in s.kills:
                assert 0 <= k.rank < s.nprocs
            for c in s.crashes:
                assert 0 <= c.rank < s.nprocs


class TestSerialisation:
    def test_round_trip(self):
        for s in generate_campaign(21, 50):
            assert ChaosScenario.from_dict(s.to_dict()) == s

    def test_round_trip_through_json(self):
        import json

        for s in generate_campaign(22, 20):
            blob = json.dumps(s.to_dict())
            assert ChaosScenario.from_dict(json.loads(blob)) == s

    def test_describe_mentions_events(self):
        s = ChaosScenario(
            name="x", kind="ckpt_crash", app="laplace", variant="full",
            seed=1, nprocs=3,
            kills=(KillSpec(frac=0.5, rank=1, attempt=1),),
            crashes=(CrashSpec(rank=2, epoch=3, corrupt_manifest=True),),
        )
        text = s.describe()
        assert "kill(r1" in text and "@a1" in text
        assert "ckpt-crash(r2 e3 corrupt)" in text


class TestScenarioConfig:
    def test_config_applies_axes_and_overrides(self):
        s = ChaosScenario(
            name="x", kind="multi_kill", app="laplace", variant="piggyback",
            seed=17, nprocs=3,
            overrides=(("detector_timeout", 0.05),),
        )
        cfg = s.config(RunConfig(nprocs=8, storage_path="/tmp/nope"))
        assert cfg.variant is Variant.PIGGYBACK
        assert cfg.seed == 17 and cfg.nprocs == 3
        assert cfg.detector_timeout == 0.05
        assert cfg.storage_path is None  # chaos cells never persist

    def test_schedule_resolves_fracs_and_offsets(self):
        s = ChaosScenario(
            name="x", kind="detector_edge", app="laplace", variant="full",
            seed=1, nprocs=4,
            kills=(
                KillSpec(frac=0.5, rank=1),
                KillSpec(frac=0.5, rank=2, offset=0.02, attempt=1),
            ),
        )
        sched = s.schedule(horizon=0.1)
        events = sched.remaining()
        assert events[0].time == pytest.approx(0.05)
        assert events[1].time == pytest.approx(0.07)
        assert events[1].attempt == 1
