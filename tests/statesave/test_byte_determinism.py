"""Byte-level rerun determinism of persisted checkpoint state.

Two identical runs must leave *bit-identical* stable storage behind:
every chunk, every generation manifest, every commit record.  This is
what makes reruns auditable by hash and what the farm's content-addressed
result cache keys on.  The historical bug: ``created_at=time.time()`` in
manifests and ``wall_time=time.time()`` in commit records baked host
wall-clock readings into persisted bytes, so no two runs ever matched.
"""

from dataclasses import replace

from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.simmpi import SUM
from repro.simmpi.failures import FailureSchedule
from repro.statesave.storage import Storage


def ring_app(ctx):
    state = ctx.checkpointable_state(lambda: {"i": 0, "acc": 0.0})
    while state["i"] < 60:
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        yield from ctx.mpi.co_send(float(state["i"]), right, tag=1)
        incoming = yield from ctx.mpi.co_recv(source=left, tag=1)
        state["acc"] += (yield from ctx.mpi.co_allreduce(incoming, SUM))
        state["i"] += 1
        yield from ctx.co_potential_checkpoint()
    return round(state["acc"], 10)


CONFIG = RunConfig(
    nprocs=3, seed=11, variant=Variant.FULL,
    checkpoint_interval=0.002, detector_timeout=0.03,
)


def _blobs(config, failures=None):
    storage = Storage(None)
    run_with_recovery(
        ring_app,
        config,
        failures=failures() if failures is not None else None,
        storage=storage,
    )
    return dict(storage.store.backend._blobs)


class TestByteIdenticalRuns:
    def test_failure_free_runs_leave_identical_bytes(self):
        first = _blobs(CONFIG)
        second = _blobs(CONFIG)
        assert first.keys() == second.keys()
        assert first == second  # every chunk, manifest and commit record

    def test_recovery_runs_leave_identical_bytes(self):
        """The same schedule replayed from scratch writes the same bytes —
        including re-taken generations after the rollback."""
        cfg = replace(CONFIG, ckpt_keep_last=2)

        def schedule():
            return FailureSchedule.single(0.004, rank=1)

        first = _blobs(cfg, failures=schedule)
        second = _blobs(cfg, failures=schedule)
        assert first == second

    def test_manifest_created_at_is_virtual_time(self):
        storage = Storage(None)
        run_with_recovery(ring_app, CONFIG, storage=storage)
        epoch = storage.committed_epoch()
        assert epoch is not None
        for rank in range(CONFIG.nprocs):
            manifest = storage.state_manifest(rank, epoch)
            data = storage.read_state(rank, epoch)
            assert manifest.created_at == data.taken_at
        # Commit records carry virtual time only; the historical
        # wall-clock duplicate field is gone.
        for record in storage.commit_history():
            assert record.committed_at >= 0.0
            assert not hasattr(record, "wall_time")
