"""Experiment A-CKPT: state-saving cost versus state size.

The paper's dense-CG observation — checkpoint cost is dominated by the
application-state volume — reduced to its mechanism: serialise/deserialise
cost and stored bytes as functions of payload size, for the framed-pickle
checkpoint format.

The second half measures the tiered storage engine (:mod:`repro.ckpt`):
full pickle snapshots versus incremental (content-addressed delta) versus
incremental+compressed generations, on synthetic evolving state and on the
paper's Laplace and dense-CG applications, with bytes written reported per
generation.
"""

import numpy as np
import pytest

from repro.apps.workloads import SCALED_CKPT_CODEC
from repro.ckpt.backends import MemoryBackend
from repro.ckpt.store import CheckpointStore
from repro.runtime.config import RunConfig, Variant
from repro.runtime.driver import run_with_recovery
from repro.statesave.format import CheckpointData
from repro.statesave.storage import Storage
from repro.util.serialization import dumps_framed, loads_framed

SIZES = {"64KB": 8_192, "1MB": 131_072, "8MB": 1_048_576}  # float64 counts


def make_ckpt(n_floats: int) -> CheckpointData:
    return CheckpointData(
        rank=0,
        epoch=1,
        protocol={"epoch": 1},
        app_state={"grid": np.arange(n_floats, dtype=np.float64)},
    )


@pytest.mark.parametrize("label", list(SIZES))
def test_serialize_cost_vs_size(benchmark, label):
    benchmark.group = "ckpt-serialize"
    data = make_ckpt(SIZES[label])

    blob = benchmark(dumps_framed, data)
    assert len(blob) >= SIZES[label] * 8


@pytest.mark.parametrize("label", list(SIZES))
def test_restore_cost_vs_size(benchmark, label):
    benchmark.group = "ckpt-restore"
    blob = dumps_framed(make_ckpt(SIZES[label]))

    data = benchmark(loads_framed, blob)
    assert data.app_state["grid"].shape[0] == SIZES[label]


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_storage_write_cost(benchmark, backend, tmp_path):
    benchmark.group = "ckpt-storage"
    storage = Storage(None if backend == "memory" else str(tmp_path))
    data = make_ckpt(131_072)  # 1 MB

    def run():
        storage.write_state(0, 1, data)

    benchmark(run)
    assert storage.bytes_written > 0


def test_cost_scales_linearly():
    """Sanity: serialise time grows roughly linearly with payload size (no
    quadratic copies hiding in the checkpoint path)."""
    import time

    times = {}
    for label, n in SIZES.items():
        data = make_ckpt(n)
        t0 = time.perf_counter()
        for _ in range(3):
            dumps_framed(data)
        times[label] = (time.perf_counter() - t0) / 3
    ratio = times["8MB"] / max(times["64KB"], 1e-9)
    assert ratio < 400, f"8MB/64KB serialise ratio {ratio:.0f} looks superlinear"


def test_unchanged_resave_hashes_and_stores_nothing():
    """Timing-free guard on compare-before-hash: an unchanged 8 MB state
    saved again costs no digest and no chunk bytes."""
    storage = Storage(None)
    data = make_ckpt(SIZES["8MB"])
    first = storage.write_state(0, 1, data)
    hashed = storage.store.chunks_hashed
    assert hashed == len(first.chunks) > 128
    again = storage.write_state(0, 2, data)
    assert storage.store.chunks_hashed == hashed
    assert again.stored_bytes == 0
    assert again.chunks == first.chunks


def test_restore_is_one_verified_read(benchmark, monkeypatch):
    """Restore throughput of a committed 4-rank, 4 MB epoch, and a
    timing-free guard that it measures *one* verified read: choosing and
    loading the epoch hashes each of its chunk refs once per restore, with
    no validation pass reading the epoch beforehand."""
    import time

    import repro.ckpt.store as store_module
    from repro.ckpt.delta import chunk_digest

    benchmark.group = "ckpt-restore"
    nprocs = 4
    storage = Storage(None)
    for rank in range(nprocs):
        storage.write_state(rank, 1, make_ckpt(SIZES["1MB"]))
        storage.write_log(rank, 1, {"late": []})
    storage.commit(1, 0.0, nprocs=nprocs)
    manifests = [
        storage.store.read_manifest(f"rank{rank}/{kind}", 1)
        for rank in range(nprocs)
        for kind in ("state", "log")
    ]
    digests = []
    monkeypatch.setattr(
        store_module, "chunk_digest", lambda data: digests.append(1) or chunk_digest(data)
    )
    seconds = []

    def restore():
        started = time.perf_counter()
        line = storage.restore_line()
        seconds.append(time.perf_counter() - started)
        assert line.epoch == 1 and len(line.pairs) == nprocs

    benchmark.pedantic(restore, rounds=5, iterations=1)
    assert len(digests) == len(seconds) * sum(len(m.chunks) for m in manifests)
    megabytes = sum(m.logical_bytes for m in manifests) / 1e6
    benchmark.extra_info["restore_mb_s"] = megabytes / min(seconds)


def test_unchanged_resave_copies_nothing():
    """Timing-free guard on zero-copy capture: the peak traced allocation
    during that re-save stays under 1 MB — a copy of the 8 MB state (a
    whole-payload pickle, a joined chunk list) creeping back in fails it."""
    import tracemalloc

    storage = Storage(None)
    data = make_ckpt(SIZES["8MB"])
    storage.write_state(0, 1, data)
    tracemalloc.start()
    try:
        storage.write_state(0, 2, data)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"re-save peaked at {peak} traced bytes"


# --------------------------------------------------------------------- #
# Experiment B-CKPT: the tiered engine — full vs incremental vs compressed.
# --------------------------------------------------------------------- #

#: The three storage strategies under comparison, as ``CheckpointStore``
#: arguments at the default chunk size.  Every one deflates the in-band
#: stream; "full-pickle" rewrites every chunk of every generation, and the
#: flat store it once was is the store's ``logical_bytes``.
ENGINE_CONFIGS = {
    "full-pickle": dict(incremental=False, codec="none"),
    "incremental": dict(incremental=True, codec="none"),
    "incremental+zlib": dict(incremental=True, codec=SCALED_CKPT_CODEC),
}


def engine_storage(strategy: str) -> Storage:
    """In-memory stable storage over an engine built for ``strategy``."""
    storage = Storage(None)
    storage.store = CheckpointStore(MemoryBackend(), **ENGINE_CONFIGS[strategy])
    return storage


def evolving_state(step: int, n_const: int = 65_536, n_hot: int = 4_096):
    """A realistic generation series: a large constant block (the dense-CG
    matrix analogue) plus a small mutating block (the solution vectors)."""
    constant = np.arange(n_const, dtype=np.float64)  # same bytes every step
    hot = np.full(n_hot, float(step))
    return CheckpointData(
        rank=0, epoch=step, protocol={"epoch": step},
        app_state={"matrix": constant, "vectors": hot},
    )


@pytest.mark.parametrize("strategy", list(ENGINE_CONFIGS))
def test_engine_write_cost(benchmark, strategy):
    """Wall cost of saving one more generation under each strategy."""
    benchmark.group = "ckpt-engine-write"
    storage = engine_storage(strategy)
    step = 0
    storage.write_state(0, step, evolving_state(step))

    def run():
        nonlocal step
        step += 1
        storage.write_state(0, step, evolving_state(step))

    benchmark(run)
    benchmark.extra_info["bytes_per_generation"] = (
        storage.bytes_written // max(1, len(storage.store.history))
    )


def test_engine_bytes_full_vs_incremental_vs_compressed():
    """Ten generations of evolving state: the delta engine must beat the
    flat store, and compression must beat delta alone."""
    totals = {}
    for strategy in ENGINE_CONFIGS:
        storage = engine_storage(strategy)
        for step in range(1, 11):
            storage.write_state(0, step, evolving_state(step))
        totals[strategy] = storage.bytes_written
        assert storage.read_state(0, 10).app_state["vectors"][0] == 10.0
    assert totals["incremental"] < totals["full-pickle"] / 3
    assert totals["incremental+zlib"] < totals["incremental"]


def _per_generation_state_bytes(storage: Storage) -> dict[int, int]:
    """Bytes written per checkpoint generation, summed over ranks."""
    per_gen: dict[int, int] = {}
    for manifest in storage.store.history:
        if manifest.stream.endswith("/state"):
            per_gen[manifest.generation] = (
                per_gen.get(manifest.generation, 0) + manifest.stored_bytes
            )
    return dict(sorted(per_gen.items()))


def _run_paper_app(
    app_name: str, storage: Storage, variant: Variant = Variant.FULL, **schedule
):
    """One recovery-driver run of a paper app; ``schedule`` holds further
    ``RunConfig`` fields (the scheduling policy, the network jitter)."""
    from repro.apps import dense_cg, laplace

    if app_name == "laplace":
        app = laplace.build(laplace.LaplaceParams(n=32, iterations=100))
    else:
        app = dense_cg.build(dense_cg.CGParams(n=48, iterations=60))
    config = RunConfig(
        nprocs=4, seed=7, variant=variant,
        checkpoint_interval=0.0025, detector_timeout=0.05, **schedule,
    )
    return run_with_recovery(app, config, storage=storage)


@pytest.mark.parametrize("app_name", ["laplace", "dense_cg"])
def test_paper_apps_incremental_compressed_beats_full(app_name):
    """Acceptance shape: on the paper's applications, incremental+compressed
    generations write measurably fewer bytes than flat pickle snapshots
    (the undeflated logical bytes).  The simulation itself is
    storage-agnostic, so all three runs take identical checkpoints and the
    byte counts are directly comparable.  (Laplace n=32's 2.5 KB block is
    under the segment floor and stays in band by design: its saving is
    compression alone.)"""
    bytes_written = {}
    logical = {}
    per_generation = {}
    outcomes = {}
    for strategy in ENGINE_CONFIGS:
        storage = engine_storage(strategy)
        outcome = _run_paper_app(app_name, storage)
        assert outcome.checkpoints_committed >= 1
        bytes_written[strategy] = outcome.storage_bytes_written
        logical[strategy] = storage.logical_bytes
        per_generation[strategy] = _per_generation_state_bytes(storage)
        outcomes[strategy] = outcome.results
    # Storage strategy must never change the computation.
    assert outcomes["full-pickle"] == outcomes["incremental+zlib"]
    # Every strategy saw the same generations (the per-generation report).
    assert (
        per_generation["incremental"].keys()
        == per_generation["full-pickle"].keys() != set()
    )
    # What a flat pickle store writes: the same for every strategy.
    assert len(set(logical.values())) == 1
    full = logical["full-pickle"]
    packed = bytes_written["incremental+zlib"]
    assert bytes_written["incremental"] <= bytes_written["full-pickle"]
    assert packed < 0.9 * full, (
        f"{app_name}: incremental+zlib wrote {packed} vs full {full} "
        f"({packed / full:.0%}) — not measurably fewer"
    )


def test_dense_cg_constant_matrix_dedupes():
    """The CG matrix block never changes after generation 1: the delta
    engine must reuse chunks across generations where the flat store
    rewrites the full state every wave.  At n=48 the block is 4.6 KB — a
    one-chunk segment under the default 64 KiB chunk."""
    storage = Storage(None)  # incremental, like every run's store
    _run_paper_app("dense_cg", storage)
    assert storage.store.chunks_reused > 0
    per_gen = _per_generation_state_bytes(storage)
    first = min(per_gen)
    later = [g for g in per_gen if g != first]
    assert later, "expected more than one checkpoint generation"
    # Later generations write less than the first (which had no prior
    # generation to dedupe against).
    assert sum(per_gen[g] for g in later) / len(later) < per_gen[first]


def test_sub_chunk_constant_block_is_stored_once():
    """Timing-free guard at the repo benchmark's ``cg_collectives`` shape:
    the 32 KB matrix block is under the default 64 KiB chunk, and every
    state generation after a rank's first still reuses it and stores only
    the small in-band stream."""
    from repro.apps import dense_cg

    config = RunConfig(
        nprocs=4, seed=7, checkpoint_interval=0.004, detector_timeout=0.05
    )
    storage = Storage.from_config(config)
    app = dense_cg.build(dense_cg.CGParams(n=128, iterations=40))
    run_with_recovery(app, config, storage=storage)
    later = [
        m for m in storage.store.history
        if m.stream.endswith("/state") and m.generation > 1
    ]
    assert len(later) >= 3 * config.nprocs
    for manifest in later:
        assert manifest.stored_bytes < 8192, (manifest.stream, manifest.generation)
        assert manifest.reused_chunks >= 1


def _bytes_per_local_checkpoint(variant: Variant) -> dict[str, float]:
    """``_run_paper_app``'s dense CG under ``variant``, on the no-RNG
    schedule (round-robin, zero jitter): stored bytes of the
    ``CheckpointData`` chunks, the ``EpochLogs`` chunks and the manifests,
    averaged over its 40 local checkpoints.  Each stream's deflate
    dictionary reference, and each dictionary the first stream to name it,
    counts in that stream's bucket.

    The schedule is fixed because the log bucket is mostly the collective
    results the interleaving makes a rank log (allgathered vectors and
    allreduce scalars): which iterations' vectors land in which epoch's
    log, and so how well they deflate, moves with the seeded schedule at an
    unchanged encoding.  Under the random schedule of seed 7 the same run
    read 217.9 B of log while a collective's send was a scheduling point,
    189.7 B after, and 213.2 B once a blocked rank resumed only when its
    receive completed.  Round-robin with zero jitter draws no random
    number, so these bytes measure the encoding alone."""
    storage = Storage(None)
    _run_paper_app(
        "dense_cg", storage, variant=variant, sched_policy="round_robin", jitter=0.0
    )
    store, history = storage.store, storage.store.history
    written = {"state": 0, "log": 0, "manifests": 0}
    for manifest in history:
        written[manifest.stream.rpartition("/")[2]] += manifest.stored_bytes
        written["manifests"] += len(manifest.to_bytes())
    counted: set[str] = set()
    for stream in sorted({manifest.stream for manifest in history}):
        ref = store.backend.get(store._dictionary_ref_key(stream))
        key = store._dictionary_key(ref.hex())
        written[stream.rpartition("/")[2]] += len(ref) + (
            0 if key in counted else store.backend.size(key)
        )
        counted.add(key)
    states = [m for m in history if m.stream.endswith("/state")]
    assert len(states) == len(history) - len(states) == 40
    return {kind: total / len(states) for kind, total in written.items()}


#: Bytes one V2 (protocol-only) local checkpoint of ``_run_paper_app``'s
#: dense CG writes on the no-RNG schedule (measured: 56.8, 119.0 and
#: 262.0).  Records are positional pickles, manifests fixed binary records
#: and the in-band stream deflated against its stream's dictionary; a
#: schema creeping back into the bytes (field names, pickled manifests,
#: hex digests), a raw stream or a standalone deflate fails this.  (Those
#: failure figures, 162.9 B of state and 258.4 B of log, were measured on
#: the random schedule of seed 7, where the log read 189.7 B.)
V2_CHECKPOINT_BYTES = {"state": 57, "log": 120, "manifests": 262}

#: The same for V3 (measured: 842.0 and 119.0); the matrix block dedupes,
#: so this is the deflated stream of the solver's frames and vectors, and
#: the same logs.  A raw stream (1541 B of state) or a standalone deflate
#: (1301.4 B) fails it (measured on the random schedule of seed 7).
V3_CHECKPOINT_BYTES = {"state": 844, "log": 120}


def test_v2_checkpoint_stores_values_not_schema():
    per_checkpoint = _bytes_per_local_checkpoint(Variant.NO_APP_STATE)
    for kind, limit in V2_CHECKPOINT_BYTES.items():
        assert per_checkpoint[kind] <= limit, (kind, per_checkpoint[kind])


def test_v3_checkpoint_stream_is_deflated():
    per_checkpoint = _bytes_per_local_checkpoint(Variant.FULL)
    for kind, limit in V3_CHECKPOINT_BYTES.items():
        assert per_checkpoint[kind] <= limit, (kind, per_checkpoint[kind])


# --------------------------------------------------------------------- #
# Timing-free guard: a checkpoint holds the live state and nothing else.
# --------------------------------------------------------------------- #

#: Every local a gallery app's checkpoint may hold, per transformed
#: function (the liveness pass's answer, pinned): initialisation inputs
#: and last iteration's temporaries must not creep back in.
GALLERY_SAVED = {
    "laplace.laplace_main": {"block", "hi", "it", "iterations", "lo", "n"},
    "laplace.halo_exchange": set(),
    "dense_cg.cg_main": {
        "a_block", "hi", "it", "iterations", "lo", "n",
        "p_local", "r_local", "rs_old", "x_local",
    },
    "dense_cg.cg_iteration": {"rs_new"},
    "neurosys.neurosys_main": {
        "dt", "hi", "i_block", "it", "lo", "v_local", "w_block",
    },
    "neurosys.neurosys_iteration": {"v_new"},
    "stencil3d.stencil3d_main": {"block", "hi", "it", "iterations", "lo", "n"},
    "stencil3d.halo_exchange_z": set(),
}


def _gallery_params():
    from repro.apps import dense_cg, laplace, neurosys, stencil3d

    return {
        "laplace": laplace.LaplaceParams(n=16, iterations=60),
        "dense_cg": dense_cg.CGParams(n=48, iterations=30),
        "neurosys": neurosys.NeurosysParams(grid=8, iterations=12),
        "stencil3d": stencil3d.Stencil3DParams(n=12, iterations=48),
    }


@pytest.mark.parametrize("app_name", ["laplace", "dense_cg", "neurosys", "stencil3d"])
def test_gallery_checkpoints_hold_only_live_names(app_name):
    from repro.api.registry import get_app

    storage = Storage(None)
    config = RunConfig(
        nprocs=4, seed=3, checkpoint_interval=0.002, detector_timeout=0.05
    )
    app = get_app(app_name).build(_gallery_params()[app_name])
    run_with_recovery(app, config, storage=storage)
    line = storage.restore_line()
    assert line is not None
    for data, _logs in line.pairs:
        frames = data.app_state["frames"]
        assert len(frames) == 2
        for func_id, saved in frames:
            assert set(saved) - {"_pc"} <= GALLERY_SAVED[func_id], func_id


def test_laplace_checkpoint_is_the_papers_state_size():
    """Logical bytes per rank-checkpoint match ``LaplaceParams.state_bytes``
    (the label on the paper's Figure 8 bars) to within 5 %."""
    from repro.apps import laplace

    params = laplace.LaplaceParams(n=256, iterations=12)
    config = RunConfig(
        nprocs=4, seed=7, checkpoint_interval=0.0025, detector_timeout=0.05
    )
    outcome = run_with_recovery(laplace.build(params), config)
    taken = sum(s.checkpoints_taken for s in outcome.layer_stats)
    logical = sum(s.ckpt_logical_bytes for s in outcome.layer_stats)
    assert taken >= config.nprocs
    assert logical / taken == pytest.approx(
        params.state_bytes(config.nprocs), rel=0.05
    )
