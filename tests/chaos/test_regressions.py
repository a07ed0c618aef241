"""Pinned regression schedules: the bugs the chaos campaigns surfaced.

Every scenario here failed an invariant on the code as it stood before
this harness existed (see ``repro.chaos.regressions`` for the bug
descriptions).  They must now pass all three invariants, forever, and
each must still fail with its fix reverted: a change that moves virtual
time can move a pinned kill out of the window where it catches its bug.
"""

import pytest

from repro.chaos.campaign import check_scenario
from repro.chaos.regressions import REGRESSION_SCENARIOS, run_regressions
from repro.ckpt.store import CheckpointStore
from repro.runtime import driver


def _restore_without_app_state(monkeypatch):
    """Revert the driver's guard: V2 restores from its committed epoch."""
    monkeypatch.setattr(
        driver, "_can_restore", lambda config, c3cfg: config.checkpointing_active
    )


def _keep_replaced_chunks(monkeypatch):
    """Revert ``CheckpointStore.save``'s reclaim of a rewrite's chunks."""
    monkeypatch.setattr(CheckpointStore, "_reclaim_replaced", lambda self, stale: None)


#: The fix each pinned schedule guards.
REVERT_FIX = {
    "v2-collective-replay-desync": _restore_without_app_state,
    "v2-halo-deadlock": _restore_without_app_state,
    "rewrite-orphans": _keep_replaced_chunks,
    "torn-write-then-rewrite": _keep_replaced_chunks,
    "corrupt-manifest-kill-stack": _keep_replaced_chunks,
    "kill-during-recovery-rewrite": _keep_replaced_chunks,
}


@pytest.mark.parametrize("name", sorted(REGRESSION_SCENARIOS))
def test_pinned_schedule_passes(name):
    verdict = check_scenario(REGRESSION_SCENARIOS[name])
    assert verdict.ok, (
        f"{name}: {REGRESSION_SCENARIOS[name].describe()}\n"
        + "\n".join(verdict.violations)
    )


def test_regression_runner_covers_all_pins():
    verdicts = run_regressions()
    assert len(verdicts) == len(REGRESSION_SCENARIOS)
    assert all(v.ok for v in verdicts)
    # Every pin injects at least one fault that actually fires.
    for verdict in verdicts:
        assert verdict.kills_fired + verdict.crashes_fired >= 1, (
            verdict.scenario.name
        )


@pytest.mark.parametrize("name", sorted(REGRESSION_SCENARIOS))
def test_pinned_schedule_fails_with_its_fix_reverted(name, monkeypatch):
    REVERT_FIX[name](monkeypatch)
    verdict = check_scenario(REGRESSION_SCENARIOS[name])
    assert not verdict.ok, f"{name} no longer reproduces its bug"
