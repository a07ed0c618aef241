"""Stable storage for checkpoints, backed by the :mod:`repro.ckpt` engine.

Layout inside the engine's backend (in-memory or a directory)::

    objects/<codec>/<d0d1>/<digest>          -- content-addressed chunks
    manifests/rank<r>/state/gen<e>.mft       -- CheckpointData generations
    manifests/rank<r>/log/gen<e>.mft         -- EpochLogs generations
    refs/COMMIT                              -- commit history (framed+CRC)

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
the previous generation.  Incremental mode and per-chunk compression are
selected per store; :meth:`Storage.from_config` reads them from the
``ckpt_*`` fields of :class:`~repro.runtime.config.RunConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.ckpt.backends import DirectoryBackend, MemoryBackend
from repro.ckpt.delta import DEFAULT_CHUNK_SIZE
from repro.ckpt.manifest import GenerationManifest
from repro.ckpt.retention import RetentionPolicy
from repro.ckpt.store import STAGE_MANIFEST, CheckpointStore
from repro.errors import ProcessKilled, StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.failures import CheckpointCrash, FailureSchedule

#: Name of the commit-history record in the engine's refs/ region.
COMMIT_RECORD = "COMMIT"


@dataclass
class CommitRecord:
    """Names one committed global checkpoint.

    ``nprocs`` lets :meth:`Storage.restore_line` load the epoch's
    generations without outside help; ``None`` (a record written by code
    that did not know the world size) takes the caller's world size, or —
    without one — trusts the epoch while some generation of it survives.

    ``committed_at`` is *virtual* time.  Persisted bytes must never carry
    host wall-clock readings: they would make two identical runs write
    different commit records, breaking byte-level rerun determinism (and
    the farm's content-addressed caching of run outcomes).  A historical
    ``wall_time`` field duplicated ``committed_at`` for this reason and
    has been folded away; records pickled by older code simply carry an
    ignored extra attribute when read back.
    """

    epoch: int
    committed_at: float
    nprocs: Optional[int] = None


@dataclass
class RestoreLine:
    """A committed global checkpoint as loaded: rank ``r``'s
    ``(CheckpointData, EpochLogs)`` pair is ``pairs[r]`` (empty when the
    world size was unknown and nothing was loaded)."""

    epoch: int
    pairs: list[Optional[tuple[Any, Any]]]

    def take(self, rank: int) -> tuple[Any, Any]:
        """Hand rank ``rank`` its pair and drop this line's reference to it."""
        pair, self.pairs[rank] = self.pairs[rank], None
        return pair


class Storage:
    """Checkpoint store; filesystem-backed or in-memory.

    The constructor keeps its historical shape — ``Storage()`` is an
    in-memory store, ``Storage(path)`` persists under ``path`` — and the
    keyword knobs select the engine's behaviour.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        codec: str = "none",
        incremental: bool = True,
        keep_last: int = 1,
        keep_every: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.path = path
        backend = MemoryBackend() if path is None else DirectoryBackend(path)
        self.store = CheckpointStore(
            backend,
            codec=codec,
            incremental=incremental,
            retention=RetentionPolicy(keep_last=keep_last, keep_every=keep_every),
            chunk_size=chunk_size,
        )
        #: Logical checkpoint-object writes (state/log/commit), not backend puts.
        self.writes = 0
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
        """Build a store from a :class:`RunConfig`-shaped object's
        ``storage_path`` and ``ckpt_*`` fields (absent fields default)."""
        return cls(
            getattr(config, "storage_path", None),
            codec=getattr(config, "ckpt_codec", "none"),
            incremental=getattr(config, "ckpt_incremental", True),
            keep_last=getattr(config, "ckpt_keep_last", 1),
            keep_every=getattr(config, "ckpt_keep_every", None),
            chunk_size=getattr(config, "ckpt_chunk_size", DEFAULT_CHUNK_SIZE),
        )

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
        self.writes += 1
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
        self.writes += 1
        return self.store.save(self._stream(rank, "log"), epoch, logs)

    # A missing generation is a missing manifest: load raises StorageError.
    def read_state(self, rank: int, epoch: int) -> Any:
        return self.store.load(self._stream(rank, "state"), epoch)

    def read_log(self, rank: int, epoch: int) -> Any:
        return self.store.load(self._stream(rank, "log"), epoch)

    def state_manifest(self, rank: int, epoch: int) -> GenerationManifest:
        """The recorded manifest of one rank's state generation."""
        return self.store.read_manifest(self._stream(rank, "state"), epoch)

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

    def _commit_history(self) -> list[CommitRecord]:
        if not self.store.has_record(COMMIT_RECORD):
            return []
        return list(self.store.get_record(COMMIT_RECORD))

    def commit_history(self) -> list[CommitRecord]:
        """The commit records currently on storage, oldest first (a copy;
        consistency auditors — e.g. chaos-campaign invariants — read this)."""
        return self._commit_history()

    def commit(
        self, epoch: int, virtual_time: float, nprocs: Optional[int] = None
    ) -> None:
        history = self._commit_history()
        history.append(
            CommitRecord(
                epoch=epoch,
                committed_at=virtual_time,
                nprocs=nprocs,
            )
        )
        self.writes += 1
        self.store.put_record(COMMIT_RECORD, history)
        self.commits += 1
        tr = self._tracer
        if tr is not None:
            tr.emit("store", "commit", t=virtual_time, epoch=epoch, nprocs=nprocs)

    def restore_line(self, nprocs: Optional[int] = None) -> Optional[RestoreLine]:
        """The newest committed global checkpoint that loads cleanly, loaded;
        None when there is none (recovery then starts from scratch).

        Each record is tried through :meth:`read_line`; a
        :class:`StorageError` on any rank — torn, bit-rotted, gc'd, or
        addressed by an older digest — skips to the next older retained
        commit, the generation-N → N-1 fallback.  Any other exception is a
        bug and propagates.  A record written without ``nprocs`` is loaded
        for ``nprocs`` ranks; with neither it is trusted, unloaded, as long
        as *some* generation for its epoch still exists (so a gc'd epoch
        falls through).
        """
        for record in reversed(self._commit_history()):
            ranks = record.nprocs if record.nprocs is not None else nprocs
            if ranks is None:
                if self._epoch_present(record.epoch):
                    return RestoreLine(record.epoch, [])
                continue
            try:
                return self.read_line(record.epoch, ranks)
            except StorageError:
                continue
        return None

    def committed_epoch(self) -> Optional[int]:
        """Epoch :meth:`restore_line` would restore, or None (a full read)."""
        line = self.restore_line()
        return line.epoch if line is not None else None

    def _epoch_present(self, epoch: int) -> bool:
        """Loose retention check for records lacking ``nprocs``: the epoch
        counts as present while some generation of it survives — or while
        the store holds no generations at all (commit-record-only usage,
        where there is nothing to cross-check)."""
        streams = self.store.streams()
        if not streams:
            return True
        return any(epoch in self.store.generations(stream) for stream in streams)

    def gc(self, nprocs: int, keep_epoch: int) -> int:
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
        history = self._commit_history()
        live = [
            record
            for record in history
            if (
                self.has_complete_epoch(record.nprocs, record.epoch)
                if record.nprocs is not None
                else self._epoch_present(record.epoch)
            )
        ]
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
