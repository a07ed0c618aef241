"""The farm engine: a content-keyed result cache over :meth:`Session.map`.

:meth:`Farm.map` is a drop-in for :meth:`repro.Session.map`: each
``(fn, payload)`` cell is fingerprinted (payload pickle + function
identity + code-version salt) and looked up in the result cache; a hit is
returned without executing the cell.  Because cells are seeded
deterministic simulations, a cached outcome is bit-identical to a fresh
execution.

Misses run through :meth:`Session.map` — the worker-pool policy with the
picklability probe and the in-process serial fallback — in batches of
:data:`DEFAULT_BATCH_SIZE`, and each batch's results are written before
the next batch starts.  An interrupted campaign therefore resumes on
cache hits: every finished batch is served from the cache on the next
call and only the remainder executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.api.session import Session
from repro.ckpt.backends import DirectoryBackend, MemoryBackend
from repro.errors import FarmJobError
from repro.farm.cache import ResultCache
from repro.farm.fingerprint import code_salt, fingerprint

#: Misses are executed (and their results persisted) in batches of this
#: size, so interrupting a long campaign strands at most one batch of
#: work — everything in completed batches is a cache hit on resume.
DEFAULT_BATCH_SIZE = 32


@dataclass
class FarmStats:
    """Cache accounting for one :meth:`Farm.map` call."""

    cells: int = 0
    hits: int = 0
    misses: int = 0
    executed: int = 0
    failed: int = 0
    #: Cells whose payload defied fingerprinting (ran uncached).
    uncached: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.cells if self.cells else 0.0

    def merged(self, other: "FarmStats") -> "FarmStats":
        return FarmStats(
            cells=self.cells + other.cells,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            executed=self.executed + other.executed,
            failed=self.failed + other.failed,
            uncached=self.uncached + other.uncached,
        )


def _guarded_call(item: tuple) -> tuple:
    """Run one cell in a worker; never let its exception kill the pool."""
    fn, payload = item
    try:
        return ("ok", fn(payload))
    except Exception as exc:  # noqa: BLE001 - reported through FarmJobError
        return ("error", f"{type(exc).__name__}: {exc}")


class Farm:
    """Content-keyed result cache for deterministic cells.

    Parameters
    ----------
    path:
        Directory for the result cache (the ``repro.ckpt`` directory
        backend).  ``None`` keeps it in memory — same semantics,
        process-lifetime durability (useful for tests and for
        deduplicating repeated cells within one campaign).
    salt:
        Override the code-version salt (tests; normally derived from the
        ``repro`` source tree).
    """

    def __init__(self, path: Optional[str] = None, *, salt: Optional[str] = None) -> None:
        self.cache = ResultCache(MemoryBackend() if path is None else DirectoryBackend(path))
        self.salt = salt if salt is not None else code_salt()
        #: Stats of the most recent :meth:`map` call.
        self.last_stats = FarmStats()
        #: Aggregate stats over this Farm instance's lifetime.
        self.total_stats = FarmStats()

    def map(
        self,
        fn: Callable[[Any], Any],
        payloads: Iterable[Any],
        *,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        cacheable: Optional[Callable[[Any], bool]] = None,
    ) -> list:
        """Apply ``fn`` to every payload, through the cache.

        Results preserve payload order and are bit-identical to
        ``Session.map(fn, payloads)`` — hits deserialise the stored
        outcome, misses execute.  ``cacheable`` (payload -> bool) lets a
        caller exempt cells whose execution has side effects the cache
        would skip (e.g. sweep cells persisting checkpoints to their own
        directory).

        A failing cell is never cached.  Every other cell still executes
        and lands in the cache, then :class:`FarmJobError` reports the
        failures; the next call runs the failed cells again.
        """
        stats = FarmStats()
        results: list = []
        to_run: list[tuple[int, Any, Optional[str]]] = []
        for index, payload in enumerate(payloads):
            results.append(None)
            stats.cells += 1
            key = None
            if cacheable is None or cacheable(payload):
                key = fingerprint(fn, payload, self.salt)
            if key is None:
                stats.uncached += 1
            elif self.cache.has(key):
                results[index] = self.cache.get(key)
                stats.hits += 1
                continue
            else:
                stats.misses += 1
            to_run.append((index, payload, key))

        failures: list[tuple[str, str]] = []
        session = Session()
        for start in range(0, len(to_run), DEFAULT_BATCH_SIZE):
            batch = to_run[start : start + DEFAULT_BATCH_SIZE]
            outcomes = session.map(
                _guarded_call,
                [(fn, payload) for _, payload, _ in batch],
                parallel=parallel,
                max_workers=max_workers,
            )
            for (index, _, key), (status, value) in zip(batch, outcomes):
                if status == "ok":
                    results[index] = value
                    stats.executed += 1
                    if key is not None:
                        self.cache.put(key, value)
                else:
                    stats.failed += 1
                    failures.append((key or f"<uncached #{index}>", value))

        self.last_stats = stats
        self.total_stats = self.total_stats.merged(stats)
        if failures:
            raise FarmJobError(failures)
        return results
