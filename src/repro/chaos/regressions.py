"""Pinned regression schedules: every bug a campaign surfaced, frozen.

Each entry reproduces — on the code as it stood before its fix — a
concrete recovery-path failure found by the seeded campaign engine, then
minimised by the shrinker.  They run as part of the test suite (and via
``python -m repro.chaos --regressions``) so none of these bugs can return
silently.

The bugs these schedules caught:

* **No-app-state restore desync** (``v2-collective-replay-desync``,
  ``v2-halo-deadlock``): a V2 run saves no application state, yet the
  driver restored protocol state from the committed epoch and armed the
  replay window.  The application re-executes from its entry point while
  the logs describe the checkpoint's re-execution suffix, so replay served
  the wrong records — a ``RecoveryError`` kind-mismatch on dense CG's
  collectives, a halo-exchange deadlock on Laplace.  Fix: a run with
  ``save_app_state=False`` recovers by re-execution from scratch
  (``runtime/driver.py``).
* **Generation-rewrite orphans** (``rewrite-orphans``,
  ``torn-write-then-rewrite``, ``corrupt-manifest-kill-stack``,
  ``kill-during-recovery-rewrite``): a recovery attempt that re-takes an
  uncommitted epoch's checkpoint republishes the same ``(stream,
  generation)``; the old manifest was overwritten and its chunks became
  permanent orphans invisible to the driver's post-failure sweep (which
  runs *before* the rewrite).  Fix: ``CheckpointStore.save`` reclaims the
  replaced manifest's now-unreferenced chunks (``repro/ckpt/store.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.campaign import CampaignConfig, ScenarioVerdict, check_scenario
from repro.chaos.scenario import ChaosScenario, CrashSpec, KillSpec

REGRESSION_SCENARIOS: dict[str, ChaosScenario] = {
    # Minimised by the shrinker from campaign seed 7 cell c0016: one kill of
    # rank 2 mid-run is enough — V2 restored-and-armed replay then serves an
    # allgather record to an allreduce call.
    "v2-collective-replay-desync": ChaosScenario(
        name="v2-collective-replay-desync",
        kind="kill_during_recovery",
        app="dense_cg",
        variant="no-app-state",
        seed=806,
        nprocs=3,
        kills=(KillSpec(frac=0.49, rank=2),),
        overrides=(("detector_timeout", 0.02), ("checkpoint_interval", 0.0025)),
    ),
    # Campaign seed 7 cell c0025: a three-kill cascade under V2 left ranks
    # blocked forever on halo receives (same restore-desync root cause, p2p
    # flavour).
    "v2-halo-deadlock": ChaosScenario(
        name="v2-halo-deadlock",
        kind="multi_kill",
        app="laplace",
        variant="no-app-state",
        seed=653,
        nprocs=3,
        kills=(
            KillSpec(frac=0.48, rank=1),
            KillSpec(frac=0.69, rank=2),
            KillSpec(frac=0.85, rank=0),
        ),
        overrides=(("detector_timeout", 0.03), ("checkpoint_interval", 0.0015)),
    ),
    # Campaign seed 7 cell c0001: a multi-kill run whose second attempt
    # re-took an uncommitted wave's checkpoints, stranding the first
    # attempt's chunks as orphans.
    "rewrite-orphans": ChaosScenario(
        name="rewrite-orphans",
        kind="multi_kill",
        app="laplace",
        variant="full",
        seed=401,
        nprocs=4,
        kills=(
            KillSpec(frac=0.39, rank=1),
            KillSpec(frac=0.12, rank=3),
            KillSpec(frac=0.27, rank=2),
        ),
        overrides=(("detector_timeout", 0.02), ("checkpoint_interval", 0.001)),
    ),
    # Campaign seed 7 cell c0002: a torn write (zero chunks land) followed
    # by a later kill; the re-taken generation stranded the torn run's
    # bytes.
    "torn-write-then-rewrite": ChaosScenario(
        name="torn-write-then-rewrite",
        kind="ckpt_crash",
        app="laplace",
        variant="full",
        seed=451,
        nprocs=2,
        kills=(KillSpec(frac=0.76, rank=0),),
        crashes=(CrashSpec(rank=1, epoch=2, after_chunks=0),),
        overrides=(
            ("detector_timeout", 0.03),
            ("checkpoint_interval", 0.001),
            ("ckpt_keep_last", 2),
        ),
    ),
    # Campaign seed 7 cell c0021: a checksum-invalid manifest published
    # mid-crash, stacked with a kill — recovery must reject the corrupt
    # generation *and* the rewrite must not orphan chunks.
    "corrupt-manifest-kill-stack": ChaosScenario(
        name="corrupt-manifest-kill-stack",
        kind="corrupt_manifest",
        app="dense_cg",
        variant="full",
        seed=164,
        nprocs=4,
        kills=(KillSpec(frac=0.41, rank=0),),
        crashes=(CrashSpec(rank=2, epoch=2, corrupt_manifest=True),),
        overrides=(
            ("detector_timeout", 0.03),
            ("checkpoint_interval", 0.001),
            ("ckpt_keep_last", 2),
        ),
    ),
    # Campaign seed 7 cell c0015: an attempt-pinned kill strikes rank 0
    # while attempt 1 is mid-replay; the third attempt's wave rewrite used
    # to orphan the second's chunks.  The attempt-1 kill moved from 0.38h
    # to 0.39h when control words shrank to 8 bytes: the wave it must land
    # in now ends a little earlier, and 0.38h no longer caught it.  It
    # moved to 0.45h when a collective's send stopped being a scheduling
    # point (restore's all-to-all interleaves differently): with the fix
    # reverted, 0.42h-0.48h reproduced the orphans and 0.36h-0.41h did not.
    # It moved to 0.40h when a blocked rank stopped being woken by a
    # delivery that does not complete its receive (fewer slices, so less
    # virtual time per wave): with the fix reverted, 0.37h-0.44h reproduce
    # the orphans and 0.30h-0.36h and 0.45h-0.60h do not, so the pin sits
    # mid-window.
    "kill-during-recovery-rewrite": ChaosScenario(
        name="kill-during-recovery-rewrite",
        kind="kill_during_recovery",
        app="laplace",
        variant="full",
        seed=969,
        nprocs=3,
        kills=(
            KillSpec(frac=0.45, rank=2),
            KillSpec(frac=0.40, rank=0, attempt=1),
        ),
        overrides=(("detector_timeout", 0.02), ("checkpoint_interval", 0.001)),
    ),
}


def run_regressions(
    config: Optional[CampaignConfig] = None,
) -> list[ScenarioVerdict]:
    """Check every pinned schedule; all must pass all three invariants."""
    return [
        check_scenario(scenario, config)
        for scenario in REGRESSION_SCENARIOS.values()
    ]
