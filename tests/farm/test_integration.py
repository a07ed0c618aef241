"""Farm integration: sweeps and chaos campaigns through the cache."""

import pickle

from repro.api.session import Session
from repro.chaos.campaign import CampaignConfig, run_campaign
from repro.farm import Farm
from repro.runtime.config import RunConfig


class TestSweepThroughFarm:
    def test_warm_sweep_is_bit_identical_and_executes_nothing(self, tmp_path):
        session = Session()
        cfg = RunConfig(nprocs=3)
        cold_farm = Farm(str(tmp_path / "farm"))
        cold = session.sweep(
            "laplace", cfg, seeds=[0, 1], parallel=False, farm=cold_farm
        )
        assert cold_farm.last_stats.executed == len(cold)
        assert cold.farm_stats is cold_farm.last_stats

        warm_farm = Farm(str(tmp_path / "farm"))  # fresh process, same dir
        warm = session.sweep(
            "laplace", cfg, seeds=[0, 1], parallel=False, farm=warm_farm
        )
        assert warm_farm.last_stats.hits == len(warm)
        assert warm_farm.last_stats.executed == 0
        for a, b in zip(cold.rows, warm.rows):
            assert a.cell == b.cell
            assert pickle.dumps(a.outcome.results) == pickle.dumps(b.outcome.results)
            assert a.outcome.total_virtual_time == b.outcome.total_virtual_time
            assert a.outcome.storage_bytes_written == b.outcome.storage_bytes_written

    def test_persistent_storage_cells_bypass_cache(self, tmp_path):
        """Cells writing checkpoints to their own directory have side
        effects a cache hit would skip, so they run uncached even through
        an on-disk farm that a second session reopens."""
        session = Session()
        cfg = RunConfig(nprocs=2, storage_path=str(tmp_path / "ckpts"))
        for _ in range(2):
            farm = Farm(str(tmp_path / "farm"))
            session.sweep("laplace", cfg, variants=["full"], parallel=False, farm=farm)
            assert (farm.last_stats.uncached, farm.last_stats.hits) == (1, 0)
        assert len(list((tmp_path / "ckpts").iterdir())) == 1

    def test_farm_outcomes_equal_direct_execution(self):
        session = Session()
        cfg = RunConfig(nprocs=2)
        direct = session.sweep("laplace", cfg, seeds=[3], parallel=False)
        assert direct.farm_stats is None
        farmed = session.sweep("laplace", cfg, seeds=[3], parallel=False, farm=Farm(None))
        for a, b in zip(direct.rows, farmed.rows):
            assert a.cell == b.cell
            assert pickle.dumps(a.outcome.results) == pickle.dumps(b.outcome.results)
            assert a.outcome.total_virtual_time == b.outcome.total_virtual_time


class TestChaosThroughFarm:
    def test_warm_campaign_bit_identical_with_zero_executions(self, tmp_path):
        cfg = CampaignConfig(master_seed=13, count=4)
        cold_farm = Farm(str(tmp_path / "farm"))
        cold = run_campaign(cfg, farm=cold_farm, parallel=False)
        assert cold_farm.total_stats.executed == cold_farm.total_stats.cells

        warm_farm = Farm(str(tmp_path / "farm"))
        warm = run_campaign(cfg, farm=warm_farm, parallel=False)
        # The acceptance bar: zero simulator cells executed, report
        # bit-identical (wall_seconds excluded by fingerprint()).
        assert warm_farm.total_stats.executed == 0
        assert warm_farm.total_stats.hits == warm_farm.total_stats.cells
        assert warm.fingerprint() == cold.fingerprint()

    def test_changed_campaign_reuses_overlapping_cells(self, tmp_path):
        farm = Farm(str(tmp_path / "farm"))
        run_campaign(CampaignConfig(master_seed=13, count=2), farm=farm, parallel=False)
        hits_before = farm.total_stats.hits
        executed_before = farm.total_stats.executed
        # Growing the campaign keeps the generator's prefix stable, so the
        # first two scenarios (and any shared baselines) are cache hits;
        # only genuinely new cells execute.
        run_campaign(CampaignConfig(master_seed=13, count=4), farm=farm, parallel=False)
        assert farm.total_stats.hits - hits_before >= 2
        new_cells = farm.total_stats.cells - (hits_before + executed_before)
        assert farm.total_stats.executed - executed_before < new_cells
