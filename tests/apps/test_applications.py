"""The three paper applications: numerical correctness vs references,
multiple process counts, and recovery equivalence under injected failures."""

import numpy as np
import pytest

from repro.apps import dense_cg, laplace, neurosys, stencil3d
from repro.check import check_app
from repro.runtime import RunConfig, run_with_recovery
from repro.simmpi import FailureSchedule


def cfg(nprocs=4, **kw):
    base = dict(nprocs=nprocs, seed=21, checkpoint_interval=0.004,
                detector_timeout=0.04)
    base.update(kw)
    return RunConfig(**base)


class TestDenseCG:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_converges_to_ones(self, nprocs):
        params = dense_cg.CGParams(n=48, iterations=40)
        out = run_with_recovery(dense_cg.build(params), cfg(nprocs))
        for r in out.results:
            assert r["max_error"] < 1e-8

    def test_uneven_row_distribution(self):
        params = dense_cg.CGParams(n=50, iterations=40)  # 50 rows over 4 ranks
        out = run_with_recovery(dense_cg.build(params), cfg(4))
        assert out.results[0]["max_error"] < 1e-8

    def test_matrix_block_is_symmetric_slice(self):
        full_rows = [dense_cg.make_matrix_block(16, r, r + 1)[0] for r in range(16)]
        full = np.vstack(full_rows)
        assert np.allclose(full, full.T)
        # strictly diagonally dominant
        for i in range(16):
            off = np.abs(full[i]).sum() - abs(full[i, i])
            assert abs(full[i, i]) > off

    def test_checkpoints_taken_during_solve(self):
        params = dense_cg.CGParams(n=48, iterations=50)
        out = run_with_recovery(dense_cg.build(params), cfg())
        assert out.checkpoints_committed >= 1

    def test_recovery_bitwise_identical(self):
        params = dense_cg.CGParams(n=48, iterations=50)
        gold = run_with_recovery(dense_cg.build(params), cfg())
        rec = run_with_recovery(
            dense_cg.build(params), cfg(),
            failures=FailureSchedule.single(0.006, 2),
        )
        assert rec.results == gold.results
        assert len(rec.attempts) == 2


class TestLaplace:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_serial_reference(self, nprocs):
        params = laplace.LaplaceParams(n=32, iterations=30)
        out = run_with_recovery(laplace.build(params), cfg(nprocs))
        ref = laplace.laplace_reference(32, 30)
        parallel_sum = sum(r["checksum"] for r in out.results)
        assert parallel_sum == pytest.approx(float(ref.sum()), abs=1e-8)

    def test_block_decomposition_covers_grid(self):
        params = laplace.LaplaceParams(n=33, iterations=5)  # uneven rows
        out = run_with_recovery(laplace.build(params), cfg(4))
        rows = sorted(r["rows"] for r in out.results)
        assert rows[0][0] == 0 and rows[-1][1] == 33
        for (_, hi), (lo, _) in zip(rows, rows[1:]):
            assert hi == lo

    def test_boundary_values_fixed(self):
        ref = laplace.laplace_reference(16, 50)
        initial = laplace.make_initial_grid(16)
        assert np.array_equal(ref[0], initial[0])
        assert np.array_equal(ref[-1], initial[-1])

    def test_recovery_bitwise_identical(self):
        params = laplace.LaplaceParams(n=32, iterations=80)
        gold = run_with_recovery(laplace.build(params), cfg())
        virtual = gold.total_virtual_time
        rec = run_with_recovery(
            laplace.build(params), cfg(),
            failures=FailureSchedule.single(virtual * 0.5, 1),
        )
        assert rec.results == gold.results
        assert len(rec.attempts) == 2


class TestNeurosys:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_serial_reference(self, nprocs):
        params = neurosys.NeurosysParams(grid=6, iterations=15)
        out = run_with_recovery(neurosys.build(params), cfg(nprocs))
        ref = neurosys.neurosys_reference(params)
        parallel_sum = sum(r["checksum"] for r in out.results)
        assert parallel_sum == pytest.approx(float(ref.sum()), abs=1e-10)

    def test_dynamics_bounded(self):
        """The leak term keeps the network stable: activities stay bounded."""
        params = neurosys.NeurosysParams(grid=8, iterations=60)
        v = neurosys.neurosys_reference(params)
        assert np.all(np.abs(v) < 10.0)

    def test_collective_pattern_five_allgathers_one_gather(self):
        """The paper's signature: 5 allgathers + 1 gather per iteration."""
        params = neurosys.NeurosysParams(grid=4, iterations=10)
        out = run_with_recovery(neurosys.build(params), cfg())
        stats = out.layer_stats[0]
        # 6 collectives per iteration (5 allgather + 1 gather); the layer
        # counts every collective call.
        assert stats.collectives == 6 * params.iterations

    def test_recovery_bitwise_identical(self):
        params = neurosys.NeurosysParams(grid=6, iterations=30)
        gold = run_with_recovery(neurosys.build(params), cfg())
        rec = run_with_recovery(
            neurosys.build(params), cfg(),
            failures=FailureSchedule.single(gold.total_virtual_time * 0.5, 3),
        )
        assert rec.results == gold.results


class TestStencil3D:
    """The two-module gallery app (entry in stencil3d.py, halo exchange
    imported from stencil3d_halo.py)."""

    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_serial_reference(self, nprocs):
        params = stencil3d.Stencil3DParams(n=12, iterations=8)
        out = run_with_recovery(stencil3d.build(params), cfg(nprocs))
        ref = stencil3d.stencil3d_reference(12, 8)
        parallel_sum = sum(r["checksum"] for r in out.results)
        assert parallel_sum == pytest.approx(float(ref.sum()), abs=1e-8)

    def test_uneven_plane_distribution_covers_volume(self):
        params = stencil3d.Stencil3DParams(n=13, iterations=4)  # 13 planes / 4
        out = run_with_recovery(stencil3d.build(params), cfg(4))
        planes = sorted(r["planes"] for r in out.results)
        assert planes[0][0] == 0 and planes[-1][1] == 13
        for (_, hi), (lo, _) in zip(planes, planes[1:]):
            assert hi == lo

    def test_boundary_faces_fixed(self):
        ref = stencil3d.stencil3d_reference(10, 20)
        initial = stencil3d.make_initial_field(10)
        assert np.array_equal(ref[0], initial[0])
        assert np.array_equal(ref[-1], initial[-1])
        assert np.array_equal(ref[:, 0, :], initial[:, 0, :])
        assert np.array_equal(ref[:, :, -1], initial[:, :, -1])

    def test_unit_spans_both_modules(self):
        unit = stencil3d.unit()
        assert {"stencil3d_main", "halo_exchange_z"} <= set(unit.functions)
        assert check_app("stencil3d").ok

    def test_recovery_bitwise_identical(self):
        params = stencil3d.Stencil3DParams(n=12, iterations=16)
        gold = run_with_recovery(stencil3d.build(params), cfg())
        rec = run_with_recovery(
            stencil3d.build(params), cfg(),
            failures=FailureSchedule.single(gold.total_virtual_time * 0.5, 1),
        )
        assert rec.results == gold.results
        assert len(rec.attempts) == 2


class TestStateSizeAccounting:
    def test_cg_state_grows_quadratically(self):
        small = dense_cg.CGParams(n=128).state_bytes(4)
        large = dense_cg.CGParams(n=256).state_bytes(4)
        assert large >= 3.5 * small

    def test_laplace_state_linear_in_rows(self):
        small = laplace.LaplaceParams(n=64).state_bytes(4)
        large = laplace.LaplaceParams(n=128).state_bytes(4)
        assert 3.0 <= large / small <= 5.0
