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
   storage, pristine schedule) reproduces the same outcome: the pickled
   results and every exact fact of :meth:`RunOutcome.facts` (virtual time,
   traffic, commits, stored bytes, attempt-by-attempt failure accounting).

Each check returns a list of violation strings (empty = invariant holds),
so a campaign report can show *what* broke, not just that something did.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.errors import StorageError
from repro.runtime.driver import RunOutcome
from repro.statesave.storage import Storage


def results_blob(outcome: RunOutcome) -> bytes:
    """Canonical bytes of the per-rank results (bit-identity oracle)."""
    return pickle.dumps(outcome.results, protocol=pickle.HIGHEST_PROTOCOL)


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


def storage_violations(storage: Storage) -> list[str]:
    out: list[str] = []
    history = storage.commit_history()
    # Newest first, each record loaded once: the first that loads is the
    # one Storage.restore_line would restore.
    chosen = None
    for record in reversed(history):
        try:
            storage.read_line(record.epoch, record.nprocs)
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


def determinism_violations(first: RunOutcome, second: RunOutcome) -> list[str]:
    """Every way ``second`` (the rerun) differs from ``first``: the pickled
    results, then each key of :meth:`RunOutcome.facts` it changed."""
    out: list[str] = []
    if results_blob(first) != results_blob(second):
        out.append("rerun produced different per-rank results")
    a, b = first.facts(), second.facts()
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b or a[key] != b[key]:
            out.append(
                f"rerun changed {key}: {a.get(key, 'absent')!r} vs "
                f"{b.get(key, 'absent')!r}"
            )
    return out
