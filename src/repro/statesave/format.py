"""Checkpoint data structures.

:class:`CheckpointData` is the unit a process writes at ``potentialCheckpoint``
time (paper Sections 4.4 and 5): the application state image plus everything
the protocol layer needs to reconstruct itself and the MPI library's
application-visible state.  The log part (:class:`~repro.protocol.logs.EpochLogs`)
is written separately at ``finalizeLog`` time.

The whole object goes through one pickler, so aliasing between application
objects, heap objects and protocol records survives restore intact; large
array buffers leave it out of band, uncopied, as segments chunked on their
own boundaries (:mod:`repro.ckpt.delta`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class CheckpointData:
    """One rank's local checkpoint for one epoch boundary."""

    rank: int
    #: The epoch this checkpoint *begins* (state.epoch after the transition).
    epoch: int
    #: Protocol variables, post-transition, normalised for restore.
    protocol: Any
    #: Early-message IDs received before this checkpoint, keyed by sender —
    #: the suppression data exchanged at restart (paper Section 4.2 Q3).
    early_ids: dict[int, list[int]] = field(default_factory=dict)
    #: Outstanding pseudo-requests (paper Section 5.2, transient objects).
    requests: list[Any] = field(default_factory=list)
    #: Persistent-object call records (paper Section 5.2).
    mpi_records: Any = None
    #: Pseudo-handles for persistent objects.
    handles: list[Any] = field(default_factory=list)
    #: Per-communicator collective call sequence numbers.
    coll_seqs: dict[int, int] = field(default_factory=dict)
    #: Opaque application state (position stack + frames + heap + globals
    #: for precompiled apps; user blob for manual apps; None for the
    #: no-app-state benchmark variant).
    app_state: Any = None
    #: Virtual time at which the checkpoint was taken.
    taken_at: float = 0.0

    def describe(self) -> str:
        n_early = sum(len(v) for v in self.early_ids.values())
        return (
            f"ckpt(rank={self.rank}, epoch={self.epoch}, "
            f"early={n_early}, requests={len(self.requests)}, "
            f"app={'yes' if self.app_state is not None else 'no'})"
        )
