"""The three machine-verified invariants every chaos scenario must satisfy.

1. **Failure-free equivalence** — after any stack of stopping faults,
   rollback + replay must produce per-rank results *bit-identical* to the
   failure-free run of the same configuration (the paper's transparency
   claim, checked on pickled bytes, not ``==``).
2. **Storage consistency** — after the run, stable storage is internally
   coherent: every commit record still loads for every rank (manifest
   checksum + chunk digests, one verified read each), so the newest one
   is what recovery would restore, and no orphan chunks are left at rest.
3. **Rerun determinism** — replaying the same scenario (same seeds, fresh
   storage, pristine schedule) reproduces the same outcome: results,
   attempt-by-attempt failure accounting, commit and byte counters.

Each check returns a list of violation strings (empty = invariant holds),
so a campaign report can show *what* broke, not just that something did.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

from repro.errors import StorageError
from repro.runtime.driver import RunOutcome
from repro.statesave.storage import Storage


def results_blob(outcome: RunOutcome) -> bytes:
    """Canonical bytes of the per-rank results (bit-identity oracle)."""
    return pickle.dumps(outcome.results, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass(frozen=True)
class RunFingerprint:
    """Everything invariant 3 compares between a run and its rerun.

    Deliberately excludes wall-clock fields; everything else — results,
    per-attempt failure accounting, virtual time, storage and network
    counters — must reproduce exactly.
    """

    results: bytes
    attempts: tuple[tuple, ...]
    total_virtual_time: float
    checkpoints_committed: int
    storage_bytes_written: int
    network_messages: int
    network_bytes: int

    @classmethod
    def of(cls, outcome: RunOutcome) -> "RunFingerprint":
        return cls(
            results=results_blob(outcome),
            attempts=tuple(
                (
                    a.index,
                    a.completed,
                    a.failed,
                    a.dead_ranks,
                    a.started_from_epoch,
                    a.virtual_time,
                    a.kills,
                    a.checkpoint_crashes,
                )
                for a in outcome.attempts
            ),
            total_virtual_time=outcome.total_virtual_time,
            checkpoints_committed=outcome.checkpoints_committed,
            storage_bytes_written=outcome.storage_bytes_written,
            network_messages=outcome.network_messages,
            network_bytes=outcome.network_bytes,
        )


# --------------------------------------------------------------------- #
# Invariant 1: failure-free equivalence.
# --------------------------------------------------------------------- #


def equivalence_violations(
    baseline_results: bytes, outcome: RunOutcome
) -> list[str]:
    out: list[str] = []
    if results_blob(outcome) != baseline_results:
        try:
            expected: Any = pickle.loads(baseline_results)
        except Exception:  # pragma: no cover - baseline came from pickle.dumps
            expected = "<unpicklable>"
        out.append(
            "results diverge from failure-free baseline: "
            f"got {outcome.results!r}, expected {expected!r}"
        )
    final = outcome.attempts[-1] if outcome.attempts else None
    if final is None or not final.completed:
        out.append("run did not end in a completed attempt")
    return out


# --------------------------------------------------------------------- #
# Invariant 2: storage consistency.
# --------------------------------------------------------------------- #


def storage_violations(storage: Storage, nprocs: int) -> list[str]:
    out: list[str] = []
    history = storage.commit_history()
    # Newest first, each record loaded once: the first that loads is the
    # one Storage.restore_line would restore.
    chosen = None
    for record in reversed(history):
        ranks = record.nprocs if record.nprocs is not None else nprocs
        try:
            storage.read_line(record.epoch, ranks)
        except StorageError as exc:
            out.append(f"committed epoch {record.epoch} no longer validates: {exc}")
        else:
            if chosen is None:
                chosen = record.epoch
    if history and chosen != history[-1].epoch:
        out.append(
            f"recovery would choose epoch {chosen}, but the newest "
            f"commit record names epoch {history[-1].epoch}"
        )
    orphans = storage.sweep_orphans()
    if orphans:
        out.append(f"{orphans} orphan chunk(s) left at rest after the run")
    return out


# --------------------------------------------------------------------- #
# Invariant 3: rerun determinism.
# --------------------------------------------------------------------- #


def determinism_violations(
    first: RunFingerprint, second: RunFingerprint
) -> list[str]:
    out: list[str] = []
    if first == second:
        return out
    if first.results != second.results:
        out.append("rerun produced different per-rank results")
    if first.attempts != second.attempts:
        out.append(
            "rerun produced a different attempt history "
            f"({len(first.attempts)} vs {len(second.attempts)} attempts, "
            "or differing per-attempt records)"
        )
    for field_name in (
        "total_virtual_time",
        "checkpoints_committed",
        "storage_bytes_written",
        "network_messages",
        "network_bytes",
    ):
        a, b = getattr(first, field_name), getattr(second, field_name)
        if a != b:
            out.append(f"rerun changed {field_name}: {a!r} vs {b!r}")
    if not out:  # pragma: no cover - the fields above are exhaustive
        out.append("rerun fingerprint differs")
    return out
