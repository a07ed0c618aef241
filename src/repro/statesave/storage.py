"""Stable storage for checkpoints, backed by the :mod:`repro.ckpt` engine.

Layout inside the engine's backend (in-memory or a directory)::

    objects/<codec>/<d0d1>/<digest>          -- content-addressed chunks
    dicts/<d0d1>/<digest>                    -- stream deflate dictionaries
    manifests/rank<r>/state/gen<e>.mft       -- CheckpointData generations
    manifests/rank<r>/log/gen<e>.mft         -- EpochLogs generations
    refs/rank<r>/{state,log}/dict            -- each stream's dictionary digest
    refs/COMMIT                              -- commit history (framed+CRC)

Manifests are binary records (:mod:`repro.ckpt.manifest`); the state, log
and commit objects pickle positionally, with no field names, and each
generation's in-band pickle stream is deflated against its stream's
dictionary while array buffers stay raw (:mod:`repro.ckpt.store`).  A store
whose manifests are pickled, or whose streams are not deflated against a
dictionary (older code), fails to load: the run restarts afresh.

Commit discipline (paper Section 4.1, phase 4): the initiator writes the
commit record only after every process has reported ``stoppedLogging`` — so
a committed epoch is guaranteed to have both the state and the log of every
rank on disk.  Recovery starts from :meth:`Storage.restore_line`, which
walks the commit history newest-first and *loads* each candidate epoch
through the engine's verified read; the first that loads is handed to the
ranks as loaded.  One since torn or bit-rotted raises a
:class:`~repro.errors.StorageError` on some rank, and recovery falls back to
the newest older commit still retained — keep at least two generations
(``keep_last=2``) to make that fallback possible.

Deliberate tradeoff: choosing the epoch costs a full read of each
candidate.  A manifest-only check is cheaper but blind to chunk bit rot,
and a load failing after the choice could only raise, not fall back; since
the read is the restore, a restart hashes each chunk once.

Every generation write is the engine's two-phase commit (chunks, then one
atomic checksummed manifest), so a crash mid-write — including the injected
:class:`~repro.simmpi.failures.CheckpointCrash` scenario — never destroys
the previous generation.  A run's store is :meth:`Storage.from_config`:
incremental, no per-chunk codec, in memory or under ``storage_path``,
keeping ``ckpt_keep_last`` generations.  Full snapshots, a chunk codec
and other chunk sizes are :class:`~repro.ckpt.store.CheckpointStore`
arguments, for engine-level experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.ckpt.backends import DirectoryBackend, MemoryBackend
from repro.ckpt.manifest import GenerationManifest
from repro.ckpt.retention import RetentionPolicy
from repro.ckpt.store import STAGE_MANIFEST, CheckpointStore
from repro.errors import ProcessKilled, StorageError
from repro.util.serialization import Positional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.failures import CheckpointCrash, FailureSchedule

#: Name of the commit-history record in the engine's refs/ region.
COMMIT_RECORD = "COMMIT"


@dataclass
class CommitRecord(Positional):
    """Names one committed global checkpoint.

    ``nprocs`` lets :meth:`Storage.restore_line` load the epoch's
    generations without outside help.

    ``committed_at`` is *virtual* time.  Persisted bytes must never carry
    host wall-clock readings: they would make two identical runs write
    different commit records, breaking byte-level rerun determinism (and
    the farm's content-addressed caching of run outcomes).  A historical
    ``wall_time`` field duplicated ``committed_at`` for this reason and
    has been folded away; records pickled by field name (older code)
    still load, and simply carry an ignored extra attribute.
    """

    epoch: int
    committed_at: float
    nprocs: int


@dataclass
class RestoreLine:
    """A committed global checkpoint as loaded: rank ``r``'s
    ``(CheckpointData, EpochLogs)`` pair is ``pairs[r]``."""

    epoch: int
    pairs: list[Optional[tuple[Any, Any]]]

    def take(self, rank: int) -> tuple[Any, Any]:
        """Hand rank ``rank`` its pair and drop this line's reference to it."""
        pair, self.pairs[rank] = self.pairs[rank], None
        return pair


class Storage:
    """Checkpoint store; filesystem-backed or in-memory.

    ``Storage()`` is an in-memory store, ``Storage(path)`` persists under
    ``path``; either keeps the newest ``keep_last`` generations.  ``store``
    is the engine underneath and may be replaced by one built directly.
    """

    def __init__(self, path: Optional[str] = None, *, keep_last: int = 1) -> None:
        self.path = path
        backend = MemoryBackend() if path is None else DirectoryBackend(path)
        self.store = CheckpointStore(backend, retention=RetentionPolicy(keep_last=keep_last))
        #: Commit events observed on this store (one per checkpoint wave);
        #: the driver diffs it to count waves committed during a run.
        self.commits = 0
        #: Failure schedule whose mid-checkpoint crashes this store realises
        #: (armed by the recovery driver; None outside fault experiments).
        self.crash_plan: Optional["FailureSchedule"] = None
        #: :class:`repro.trace.TraceRecorder` armed by the recovery driver
        #: for the duration of one run; None means no tracing (and the
        #: engine-level ``store.tracer`` mirrors this assignment).
        self._tracer: Optional[Any] = None

    @classmethod
    def from_config(cls, config: Any) -> "Storage":
        """The store a :class:`~repro.runtime.config.RunConfig` asks for:
        under its ``storage_path`` (in memory when None), keeping
        ``ckpt_keep_last`` generations."""
        return cls(config.storage_path, keep_last=config.ckpt_keep_last)

    # ------------------------------------------------------------------ #
    # Engine observability.
    # ------------------------------------------------------------------ #

    @property
    def tracer(self) -> Optional[Any]:
        return self._tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        # Mirror onto the engine so two-phase-commit / retention events
        # come from where they happen, not from this facade.
        self._tracer = value
        self.store.tracer = value

    @property
    def bytes_written(self) -> int:
        """Cumulative encoded bytes that reached the backend."""
        return self.store.bytes_written

    @property
    def logical_bytes(self) -> int:
        """What a flat one-blob-per-checkpoint store would have written."""
        return self.store.logical_bytes

    # ------------------------------------------------------------------ #
    # Checkpoint API.
    # ------------------------------------------------------------------ #

    @staticmethod
    def _stream(rank: int, kind: str) -> str:
        return f"rank{rank}/{kind}"

    def write_state(self, rank: int, epoch: int, data: Any) -> GenerationManifest:
        crash = (
            self.crash_plan.take_checkpoint_crash(rank, epoch)
            if self.crash_plan is not None
            else None
        )
        stream = self._stream(rank, "state")
        # Manifests are stamped with the checkpoint's *virtual* take time —
        # never the host clock, which would break byte-identical reruns.
        taken_at = float(getattr(data, "taken_at", 0.0))
        if crash is None:
            return self.store.save(stream, epoch, data, created_at=taken_at)
        return self._crashing_write(stream, rank, epoch, data, crash)

    def _crashing_write(
        self, stream: str, rank: int, epoch: int, data: Any, crash: "CheckpointCrash"
    ) -> GenerationManifest:
        """Realise a :class:`CheckpointCrash`: die mid-write, leaving either
        a torn (unpublished) generation or a checksum-invalid manifest."""
        at_time = float(getattr(data, "taken_at", 0.0))
        if crash.corrupt_manifest:
            self.store.save(stream, epoch, data, created_at=at_time)
            self.store.corrupt_manifest(stream, epoch)
            raise ProcessKilled(rank, at_time)

        def progress(stage: str, index: int, total: int) -> None:
            # The hook fires before chunk ``index`` is processed: raising
            # at index == after_chunks leaves exactly that many chunks
            # persisted.  The manifest stage raises unconditionally, so the
            # generation is torn even when the payload has fewer chunks
            # than after_chunks.
            if stage == STAGE_MANIFEST or index >= crash.after_chunks:
                raise ProcessKilled(rank, at_time)

        return self.store.save(stream, epoch, data, progress=progress, created_at=at_time)

    def write_log(self, rank: int, epoch: int, logs: Any) -> GenerationManifest:
        return self.store.save(self._stream(rank, "log"), epoch, logs)

    # A missing generation is a missing manifest: load raises StorageError.
    def read_state(self, rank: int, epoch: int) -> Any:
        return self.store.load(self._stream(rank, "state"), epoch)

    def read_log(self, rank: int, epoch: int) -> Any:
        return self.store.load(self._stream(rank, "log"), epoch)

    def has_complete_epoch(self, nprocs: int, epoch: int) -> bool:
        """True if every rank's state *and* log for ``epoch`` is present."""
        return all(
            self.store.has_generation(self._stream(rank, kind), epoch)
            for rank in range(nprocs)
            for kind in ("state", "log")
        )

    def read_line(self, epoch: int, nprocs: int) -> RestoreLine:
        """Every rank's state and log of ``epoch``, each generation read
        and verified once; raises :class:`StorageError` if any is bad."""
        return RestoreLine(
            epoch,
            [(self.read_state(rank, epoch), self.read_log(rank, epoch)) for rank in range(nprocs)],
        )

    # ------------------------------------------------------------------ #
    # Commit record.
    # ------------------------------------------------------------------ #

    def commit_history(self) -> list[CommitRecord]:
        """The commit records currently on storage, oldest first (a copy;
        consistency auditors — e.g. chaos-campaign invariants — read this)."""
        if not self.store.has_record(COMMIT_RECORD):
            return []
        return list(self.store.get_record(COMMIT_RECORD))

    def commit(self, epoch: int, virtual_time: float, nprocs: int) -> None:
        history = self.commit_history()
        history.append(CommitRecord(epoch=epoch, committed_at=virtual_time, nprocs=nprocs))
        self.store.put_record(COMMIT_RECORD, history)
        self.commits += 1
        tr = self._tracer
        if tr is not None:
            tr.emit("store", "commit", t=virtual_time, epoch=epoch, nprocs=nprocs)

    def restore_line(self) -> Optional[RestoreLine]:
        """The newest committed global checkpoint that loads cleanly, loaded;
        None when there is none (recovery then starts from scratch).

        Each record is tried through :meth:`read_line`; a
        :class:`StorageError` on any rank — torn, bit-rotted, gc'd, or
        addressed by an older digest — skips to the next older retained
        commit, the generation-N → N-1 fallback.  Any other exception is a
        bug and propagates.
        """
        for record in reversed(self.commit_history()):
            try:
                return self.read_line(record.epoch, record.nprocs)
            except StorageError:
                continue
        return None

    def committed_epoch(self) -> Optional[int]:
        """Epoch :meth:`restore_line` would restore, or None (a full read)."""
        line = self.restore_line()
        return line.epoch if line is not None else None

    def gc(self, keep_epoch: int) -> int:
        """Apply the retention policy with ``keep_epoch`` pinned.

        Returns the number of generation manifests removed.  Called after a
        commit; the paper's discipline (only the latest committed checkpoint
        retained) is the default ``keep_last=1`` policy.
        """
        removed = self.store.collect(pinned=keep_epoch)
        self._prune_commit_history()
        return removed

    def _prune_commit_history(self) -> None:
        """Drop commit records whose generations retention has deleted."""
        history = self.commit_history()
        live = [r for r in history if self.has_complete_epoch(r.nprocs, r.epoch)]
        if len(live) != len(history):
            self.store.put_record(COMMIT_RECORD, live)

    def sweep_orphans(self) -> int:
        """Reclaim chunks no manifest references (torn-write leftovers).

        Full-store scan; the recovery driver runs it after a failed
        attempt, off the checkpoint hot path."""
        return self.store.sweep_orphans()

    def wipe(self) -> None:
        """Remove everything (test helper)."""
        self.store.wipe()
