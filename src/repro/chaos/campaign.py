"""The chaos campaign runner.

A campaign is: generate ``count`` seeded adversarial scenarios, measure
one failure-free baseline per distinct configuration cell, then execute
every scenario and machine-verify the three invariants of
:mod:`repro.chaos.invariants` against its cell's baseline.  Fan-out rides
:meth:`repro.Session.map`, the same worker-pool policy sweeps use, so a
campaign parallelises across cores and still produces bit-identical
reports serially.

Scenarios that fail are (optionally) minimised by the shrinker before the
report is assembled, so a red campaign hands you the smallest schedule
that still breaks — ready to be pinned as a regression.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.api.registry import get_app
from repro.api.session import Session
from repro.apps.dense_cg import CGParams
from repro.apps.laplace import LaplaceParams
from repro.chaos.generator import generate_campaign
from repro.chaos.invariants import (
    determinism_violations,
    equivalence_violations,
    results_blob,
    storage_violations,
)
from repro.chaos.scenario import DEFAULT_VARIANTS, ChaosScenario
from repro.runtime.config import RunConfig
from repro.runtime.driver import run_with_recovery
from repro.statesave.storage import Storage

if TYPE_CHECKING:  # pragma: no cover
    from repro.farm.engine import Farm

#: Scaled workload points the campaign runs by default — small enough that
#: a ~200-scenario campaign (baseline + run + deterministic rerun each)
#: finishes in CI time, large enough to commit several checkpoint waves.
DEFAULT_PARAMS: dict[str, Any] = {
    "laplace": LaplaceParams(n=16, iterations=100),
    "dense_cg": CGParams(n=16, iterations=20),
}


def default_base_config() -> RunConfig:
    """Campaign-wide defaults; each scenario overrides its own axes.  The
    ``"error"`` check level refuses an app matrix with error findings."""
    return RunConfig(
        nprocs=4, checkpoint_interval=0.0015, detector_timeout=0.02, check="error"
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign (and hence its report)."""

    master_seed: int = 7
    count: int = 50
    apps: tuple[str, ...] = ("laplace", "dense_cg")
    variants: tuple[str, ...] = DEFAULT_VARIANTS
    nprocs_choices: tuple[int, ...] = (2, 3, 4)
    kinds: Optional[tuple[str, ...]] = None
    base_config: Optional[RunConfig] = None
    params: Optional[Mapping[str, Any]] = None
    #: Minimise failing scenarios before reporting.
    shrink_failures: bool = True

    def resolved_base(self) -> RunConfig:
        return self.base_config if self.base_config is not None else default_base_config()

    def resolved_params(self, app: str) -> Any:
        table = self.params if self.params is not None else DEFAULT_PARAMS
        return table.get(app)


@dataclass(frozen=True)
class BaselineProbe:
    """What a scenario is checked against: the failure-free run's results
    (bit-exact) and its first-attempt virtual time (the kill-time horizon)."""

    results: bytes
    horizon: float
    checkpoints_committed: int


@dataclass
class ScenarioVerdict:
    """One scenario's outcome: which invariants held, what fired."""

    scenario: ChaosScenario
    ok: bool
    violations: tuple[str, ...] = ()
    attempts: int = 0
    restarts: int = 0
    kills_fired: int = 0
    crashes_fired: int = 0
    checkpoints_committed: int = 0
    virtual_time: float = 0.0
    #: Present when the shrinker minimised a failing scenario.
    shrunk: Optional[ChaosScenario] = None
    #: Flight-recorder dump for a failing scenario: the last-N trace
    #: events per rank (plus ``"sim"``) from an instrumented re-run.  The
    #: dump is virtual-time-only, so embedding it keeps the report
    #: deterministic — a warm farm rerun reproduces it bit-for-bit.
    flight: Optional[dict[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        out = {
            "scenario": self.scenario.to_dict(),
            "ok": self.ok,
            "violations": list(self.violations),
            "attempts": self.attempts,
            "restarts": self.restarts,
            "kills_fired": self.kills_fired,
            "crashes_fired": self.crashes_fired,
            "checkpoints_committed": self.checkpoints_committed,
            "virtual_time": self.virtual_time,
        }
        if self.shrunk is not None:
            out["shrunk"] = self.shrunk.to_dict()
        if self.flight is not None:
            out["flight"] = self.flight
        return out


@dataclass
class CampaignReport:
    """The campaign's deterministic record (plus wall-clock, excluded from
    determinism comparisons)."""

    master_seed: int
    count: int
    verdicts: list[ScenarioVerdict] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def failures(self) -> list[ScenarioVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.ok)

    def to_dict(self) -> dict[str, Any]:
        by_kind: dict[str, int] = {}
        for v in self.verdicts:
            by_kind[v.scenario.kind] = by_kind.get(v.scenario.kind, 0) + 1
        return {
            "master_seed": self.master_seed,
            "count": self.count,
            "passed": self.passed,
            "failed": len(self.failures),
            "scenarios_by_kind": dict(sorted(by_kind.items())),
            "wall_seconds": self.wall_seconds,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def fingerprint(self) -> dict[str, Any]:
        """The deterministic slice of the report (drops wall-clock)."""
        out = self.to_dict()
        out.pop("wall_seconds")
        return out

    def summary(self) -> str:
        lines = [
            f"chaos campaign seed={self.master_seed}: "
            f"{self.passed}/{len(self.verdicts)} scenarios passed"
        ]
        for v in self.failures:
            lines.append(f"FAIL {v.scenario.name}: {v.scenario.describe()}")
            for violation in v.violations:
                lines.append(f"  - {violation}")
            if v.shrunk is not None:
                lines.append(f"  shrunk to: {v.shrunk.describe()}")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Module-level jobs (must be picklable for Session.map's worker path).
# --------------------------------------------------------------------- #


def _run_once(
    scenario: ChaosScenario,
    cfg: RunConfig,
    params: Any,
    horizon: float,
    tracer: Any = None,
):
    """One execution of a scenario: fresh app, storage and schedule."""
    app_main = get_app(scenario.app).build(params)
    storage = Storage.from_config(cfg)
    outcome = run_with_recovery(
        app_main, cfg, failures=scenario.schedule(horizon), storage=storage,
        tracer=tracer,
    )
    return outcome, storage


#: Ring capacity for flight-recorder re-runs of failing scenarios: small
#: enough to be cheap, large enough that every rank's last-N tail survives.
_FLIGHT_CAPACITY = 4096


def _capture_flight(
    scenario: ChaosScenario, cfg: RunConfig, params: Any, horizon: float
) -> Optional[dict[str, Any]]:
    """Re-run a failing scenario with the event bus armed; dump the tail.

    The recorder is caller-owned, so its events survive even when the
    re-run raises (``run_with_recovery`` only arms/clears it).  The dump
    carries virtual timestamps only — embedding it in the report cannot
    break warm-rerun bit-identity.
    """
    from repro.trace.recorder import TraceRecorder, flight_dump

    recorder = TraceRecorder(capacity=_FLIGHT_CAPACITY)
    try:
        _run_once(scenario, cfg, params, horizon, tracer=recorder)
    except Exception:
        pass  # the verdict already records the violation; we want the tail
    return flight_dump(recorder)


def _baseline_job(payload: tuple) -> BaselineProbe:
    app, cfg, params = payload
    outcome = run_with_recovery(
        get_app(app).build(params), cfg, storage=Storage.from_config(cfg)
    )
    return BaselineProbe(
        results=results_blob(outcome),
        horizon=outcome.attempts[0].virtual_time,
        checkpoints_committed=outcome.checkpoints_committed,
    )


def _scenario_job(payload: tuple) -> ScenarioVerdict:
    scenario, cfg, params, probe = payload
    violations: list[str] = []
    verdict = ScenarioVerdict(scenario=scenario, ok=False)
    try:
        outcome, storage = _run_once(scenario, cfg, params, probe.horizon)
    except Exception as exc:
        violations.append(f"run raised {type(exc).__name__}: {exc}")
        verdict.violations = tuple(violations)
        verdict.flight = _capture_flight(scenario, cfg, params, probe.horizon)
        return verdict
    # Verdict accounting: exact counts on the virtual clock only.
    verdict.attempts = len(outcome.attempts)
    verdict.restarts = outcome.restarts
    verdict.kills_fired = sum(len(rec.kills) for rec in outcome.attempts)
    verdict.crashes_fired = sum(len(rec.checkpoint_crashes) for rec in outcome.attempts)
    verdict.checkpoints_committed = outcome.checkpoints_committed
    verdict.virtual_time = outcome.total_virtual_time
    # Invariant 1: bit-identical to the failure-free baseline.
    violations.extend(equivalence_violations(probe.results, outcome))
    # Invariant 2: storage internally consistent after the run.
    violations.extend(storage_violations(storage))
    # Invariant 3: the same scenario replays to the same outcome.
    try:
        rerun, _ = _run_once(scenario, cfg, params, probe.horizon)
    except Exception as exc:
        violations.append(f"rerun raised {type(exc).__name__}: {exc}")
    else:
        violations.extend(determinism_violations(outcome, rerun))
    verdict.violations = tuple(violations)
    verdict.ok = not violations
    if violations:
        verdict.flight = _capture_flight(scenario, cfg, params, probe.horizon)
    return verdict


# --------------------------------------------------------------------- #
# Public entry points.
# --------------------------------------------------------------------- #


def scenario_payload(
    scenario: ChaosScenario,
    config: CampaignConfig,
    probe: BaselineProbe,
) -> tuple:
    cfg = scenario.config(config.resolved_base())
    return (scenario, cfg, config.resolved_params(scenario.app), probe)


def check_scenario(
    scenario: ChaosScenario,
    config: Optional[CampaignConfig] = None,
    probe: Optional[BaselineProbe] = None,
) -> ScenarioVerdict:
    """Run one scenario through all three invariants, in-process.

    Measures the failure-free baseline itself when ``probe`` is not
    supplied (regression tests and the shrinker pass one to avoid
    re-measuring per shrink step).
    """
    config = config if config is not None else CampaignConfig()
    cfg = scenario.config(config.resolved_base())
    params = config.resolved_params(scenario.app)
    if probe is None:
        probe = _baseline_job((scenario.app, cfg, params))
    return _scenario_job((scenario, cfg, params, probe))


def run_campaign(
    config: Optional[CampaignConfig] = None,
    *,
    session: Optional[Session] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    farm: Optional["Farm"] = None,
) -> CampaignReport:
    """Generate, baseline, execute and verify a whole campaign.

    With a ``farm``, baselines and scenario verdicts are served from the
    content-addressed result cache when their cells are unchanged (same
    scenario, config, params, code version) and executed and cached
    otherwise — a warm rerun of an identical campaign
    executes zero simulator cells and reproduces the report bit-for-bit
    (modulo ``wall_seconds``, which is excluded from fingerprints).

    Each app of the matrix passes the ``Session`` static-check gate once,
    at the base config's ``check`` level, before any simulator runs: a
    campaign over an app the protocol cannot recover correctly would only
    produce noise, so at ``"error"`` (the default base config's level)
    error findings abort with :class:`~repro.errors.CheckError` up front.
    """
    config = config if config is not None else CampaignConfig()
    session = session if session is not None else Session(max_workers=max_workers)
    level = config.resolved_base().check
    for app in dict.fromkeys(config.apps):
        session._run_check(app, level)

    def fan_out(fn, payloads):
        if farm is not None:
            return farm.map(
                fn, payloads,
                parallel=parallel,
                # The farm runs through its own Session; keep the caller's
                # configured pool width when the call does not name one.
                max_workers=max_workers or session.max_workers,
            )
        return session.map(fn, payloads, parallel=parallel, max_workers=max_workers)

    wall_start = time.perf_counter()
    scenarios = generate_campaign(
        config.master_seed,
        config.count,
        apps=config.apps,
        variants=config.variants,
        nprocs_choices=config.nprocs_choices,
        kinds=config.kinds,
    )

    # One failure-free baseline per distinct configuration cell.
    payload_by_cell: dict[tuple, tuple] = {}
    for scenario in scenarios:
        payload_by_cell.setdefault(
            scenario.cell_key(),
            (
                scenario.app,
                scenario.config(config.resolved_base()),
                config.resolved_params(scenario.app),
            ),
        )
    probes = dict(
        zip(
            payload_by_cell,
            fan_out(_baseline_job, list(payload_by_cell.values())),
        )
    )

    payloads = [
        scenario_payload(s, config, probes[s.cell_key()]) for s in scenarios
    ]
    verdicts = fan_out(_scenario_job, payloads)

    if config.shrink_failures:
        from repro.chaos.shrink import shrink_scenario

        for verdict in verdicts:
            if verdict.ok:
                continue
            probe = probes[verdict.scenario.cell_key()]
            verdict.shrunk = shrink_scenario(
                verdict.scenario,
                lambda s, _probe=probe: check_scenario(s, config, probe=_probe),
            )

    report = CampaignReport(
        master_seed=config.master_seed,
        count=config.count,
        verdicts=verdicts,
    )
    report.wall_seconds = time.perf_counter() - wall_start
    return report
