"""repro.chaos — randomised multi-failure campaigns for the C3 protocol.

The paper's central claim is *transparent* recovery: after any stopping
fault, rollback + replay produces results bit-identical to a failure-free
run.  This package defends that claim mechanically: a seeded generator
produces adversarial failure schedules (multi-kill cascades, faults during
recovery, mid-checkpoint torn writes, corrupt-manifest stacks, detector-
edge timings), a campaign runner executes them across V1–V3 × the paper
applications, and three machine-verified invariants gate every cell —
failure-free equivalence, storage consistency, rerun determinism.
Failures are delta-debugged down to minimal schedules and pinned as
regressions.

Quick use::

    from repro.chaos import CampaignConfig, run_campaign

    report = run_campaign(CampaignConfig(master_seed=7, count=200))
    assert not report.failures, report.summary()

or from the shell: ``python -m repro.chaos --seed 7 --count 200``.
"""

from repro.chaos.campaign import (
    BaselineProbe,
    CampaignConfig,
    CampaignReport,
    ScenarioVerdict,
    check_scenario,
    run_campaign,
)
from repro.chaos.generator import KIND_WEIGHTS, generate_campaign, generate_scenario
from repro.chaos.invariants import (
    determinism_violations,
    equivalence_violations,
    storage_violations,
)
from repro.chaos.scenario import (
    DEFAULT_VARIANTS,
    ChaosScenario,
    CrashSpec,
    KillSpec,
)
from repro.chaos.shrink import shrink_scenario

__all__ = [
    "BaselineProbe",
    "CampaignConfig",
    "CampaignReport",
    "ChaosScenario",
    "CrashSpec",
    "DEFAULT_VARIANTS",
    "KIND_WEIGHTS",
    "KillSpec",
    "ScenarioVerdict",
    "check_scenario",
    "determinism_violations",
    "equivalence_violations",
    "generate_campaign",
    "generate_scenario",
    "run_campaign",
    "shrink_scenario",
    "storage_violations",
]
