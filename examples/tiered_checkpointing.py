#!/usr/bin/env python3
"""Tour of the tiered checkpoint storage engine (`repro.ckpt`).

Three demonstrations on the dense-CG benchmark application:

1. **Bytes** — the same run under a flat full-pickle store, an
   incremental (content-addressed delta) store, and an incremental +
   zlib-compressed store, all at the default 64 KiB chunk size: the
   constant 4.6 KB matrix block is a segment of its own (any contiguous
   buffer of a filesystem block or more is), so it dedupes to zero after
   its first generation, and compression shrinks the rest.
2. **Torn write** — a rank is killed *in the middle of writing* its
   epoch-2 checkpoint (`FailureSchedule.during_checkpoint`).  The
   two-phase commit never publishes the torn generation, so recovery
   restarts from committed generation 1 and the answer is bit-identical.
3. **Bit rot** — after a successful run with `ckpt_keep_last=2`, the
   newest committed generation's manifest is corrupted in place.  The
   checksum rejects it when the next restart loads it, and the run resumes
   from generation N-1 — same final answer.

Run:  python examples/tiered_checkpointing.py
"""

import tempfile

from repro import RunConfig, Session
from repro.apps.dense_cg import CGParams
from repro.simmpi import FailureSchedule
from repro.statesave.storage import Storage

PARAMS = CGParams(n=48, iterations=60)
BASE = dict(
    nprocs=4, seed=7, checkpoint_interval=0.0025, detector_timeout=0.05,
    ckpt_keep_last=2,
)


def bytes_comparison(session: Session) -> None:
    print("1) full vs incremental vs compressed (same run, same checkpoints)")
    strategies = {
        "full pickle     ": dict(ckpt_incremental=False, ckpt_codec="none"),
        "incremental     ": dict(ckpt_incremental=True, ckpt_codec="none"),
        "incremental+zlib": dict(ckpt_incremental=True, ckpt_codec="zlib"),
    }
    baseline = None
    final = None
    for label, knobs in strategies.items():
        config = RunConfig(**BASE, **knobs)
        storage = Storage.from_config(config)
        out = session.run("dense_cg", config, params=PARAMS, storage=storage)
        baseline = baseline or out.storage_bytes_written
        final = out.storage_bytes_written
        print(
            f"   {label}: {out.storage_bytes_written:>9,} bytes "
            f"({out.storage_bytes_written / baseline:5.0%} of flat), "
            f"{out.checkpoints_committed} waves committed"
        )
    assert final < baseline, "delta+compression saved no bytes!"
    print()


def torn_write_recovery(session: Session) -> None:
    print("2) kill a rank mid-checkpoint-write; recover from generation N-1")
    config = RunConfig(**BASE, ckpt_codec="zlib")
    gold = session.run("dense_cg", config, params=PARAMS)
    out = session.run(
        "dense_cg", config, params=PARAMS,
        failures=FailureSchedule.during_checkpoint(rank=2, epoch=2),
    )
    assert out.results == gold.results, "recovery diverged!"
    print(
        f"   restarts={out.restarts}, "
        f"resumed from epoch {out.attempts[1].started_from_epoch}, "
        f"answer identical: {out.results == gold.results}"
    )
    print()


def bit_rot_fallback(session: Session) -> None:
    print("3) corrupt the newest committed generation; checksum falls back")
    with tempfile.TemporaryDirectory() as root:
        config = RunConfig(storage_path=root, ckpt_codec="zlib", **BASE)
        storage = Storage.from_config(config)
        gold = session.run("dense_cg", config, params=PARAMS, storage=storage)
        newest = storage.commit_history()[-1].epoch
        storage.store.corrupt_manifest("rank0/state", newest)
        reopened = Storage.from_config(config)
        # What the restart will restore: the newest commit that loads cleanly.
        fallback = reopened.restore_line().epoch
        assert fallback == newest - 1, "checksum did not fall back to N-1!"
        out = session.run("dense_cg", config, params=PARAMS, storage=reopened)
        assert out.results == gold.results, "fallback rerun diverged!"
        print(
            f"   committed epoch was {newest}, after bit rot restart uses "
            f"{fallback}; rerun matches: {out.results == gold.results}"
        )


def main() -> None:
    session = Session()
    bytes_comparison(session)
    torn_write_recovery(session)
    bit_rot_fallback(session)


if __name__ == "__main__":
    main()
