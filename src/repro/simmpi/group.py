"""Process groups (the MPI_Group analogue).

A group is an ordered set of world ranks.  Communicators are built over
groups; ``Comm.split``/``Comm.dup`` produce new groups.  Groups are plain
immutable values, safe to checkpoint directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimMPIError


@dataclass(frozen=True)
class Group:
    """An ordered, duplicate-free tuple of world ranks."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise SimMPIError(f"duplicate ranks in group {self.members}")
        if any(r < 0 for r in self.members):
            raise SimMPIError(f"negative rank in group {self.members}")

    @classmethod
    def world(cls, nprocs: int) -> "Group":
        return cls(tuple(range(nprocs)))

    @property
    def size(self) -> int:
        return len(self.members)

    def rank_of(self, world_rank: int) -> int:
        """Group-local rank of a world rank (raises if not a member)."""
        try:
            return self.members.index(world_rank)
        except ValueError:
            raise SimMPIError(f"rank {world_rank} not in group {self.members}") from None

    def world_rank(self, group_rank: int) -> int:
        """World rank of a group-local rank."""
        if not 0 <= group_rank < len(self.members):
            raise SimMPIError(f"group rank {group_rank} out of range for {self.members}")
        return self.members[group_rank]

    def contains(self, world_rank: int) -> bool:
        return world_rank in self.members

    def subset(self, group_ranks: list[int]) -> "Group":
        """New group from a list of *group-local* ranks."""
        return Group(tuple(self.world_rank(r) for r in group_ranks))
