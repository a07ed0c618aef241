"""Retention policy: which generations survive garbage collection.

The paper assumes only the latest committed global checkpoint is kept
(``keep_last=1``, the default — matching the original flat store's GC).
A wider window (``keep_last=2``) leaves a recovery point when the newest
generation is corrupt.  The pinned generation — the one the commit record
names — is always retained regardless of policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class RetentionPolicy:
    """The ``keep_last`` newest generations."""

    keep_last: int = 1

    def __post_init__(self) -> None:
        if self.keep_last < 1:
            raise ConfigError(f"keep_last must be >= 1, got {self.keep_last}")

    def live(
        self, generations: Sequence[int], pinned: Optional[int] = None
    ) -> set[int]:
        """The subset of ``generations`` this policy retains."""
        ordered = sorted(set(generations))
        keep = set(ordered[-self.keep_last :]) if ordered else set()
        if pinned is not None:
            keep.add(pinned)
        return keep
