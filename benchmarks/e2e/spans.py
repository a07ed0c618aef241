"""Benchmark-owned spans around the calls into each layer.

Nothing under ``src/`` is instrumented: the traced pass hands
``Session.run`` a :class:`repro.statesave.Storage` subclass whose methods,
store and backend record a span per call.  Every timed seam is synchronous
(none suspends under the cooperative core), so spans nest strictly and a
span's self time — its duration minus its children's — is exclusive.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

STORAGE_METHODS = ("write_state", "write_log", "read_state", "read_log", "commit", "gc")
STORE_METHODS = ("save", "load", "collect")
BACKEND_METHODS = ("put", "get", "exists", "size", "delete", "keys")


class SpanLog:
    """In-memory span list; ``run_id`` stamps every span opened under it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None, run id]`` per span.
        self.spans: list[list] = []
        self._open: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    # -- queries -------------------------------------------------------- #

    def _select(self, run_id: str, prefix: str) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s[4] == run_id and s[0].startswith(prefix)
        ]

    def total(self, run_id: str, prefix: str) -> float:
        """Summed duration of the run's spans whose name starts with ``prefix``."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self._select(run_id, prefix))

    def count(self, run_id: str, prefix: str) -> int:
        return len(self._select(run_id, prefix))

    def self_total(self, run_id: str, prefix: str) -> float:
        """Summed self time (duration minus direct children) of those spans."""
        selected = set(self._select(run_id, prefix))
        total = sum(self.spans[i][2] - self.spans[i][1] for i in selected)
        for span in self.spans:
            if span[3] in selected:
                total -= span[2] - span[1]
        return total

    def as_records(self) -> list[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "run": s[4]}
            for i, s in enumerate(self.spans)
        ]


def _timed_subclass(base: type, layer: str, methods: tuple[str, ...]) -> type:
    """Subclass of ``base`` recording ``<layer>.<method>`` on ``self.span_log``."""

    def wrap(method: str):
        inner = getattr(base, method)
        span_name = f"{layer}.{method}"

        def timed(self, *args: Any, **kwargs: Any) -> Any:
            with self.span_log.span(span_name):
                return inner(self, *args, **kwargs)

        timed.__name__ = method
        return timed

    return type(f"Timed{base.__name__}", (base,), {m: wrap(m) for m in methods})


def timed_storage(config: Any, log: SpanLog) -> Any:
    """In-memory storage for ``config`` whose every layer records spans.

    Returns None when a seam it subclasses has moved — the traced pass then
    runs on the default storage and the span-derived metrics read null.
    """
    try:
        from repro.ckpt.backends import MemoryBackend
        from repro.ckpt.store import CheckpointStore
        from repro.statesave.storage import Storage

        storage_cls = _timed_subclass(Storage, "statesave", STORAGE_METHODS)
        store_cls = _timed_subclass(CheckpointStore, "ckpt", STORE_METHODS)
        backend_cls = _timed_subclass(MemoryBackend, "backend", BACKEND_METHODS)
        storage = storage_cls.from_config(config)
        plain = storage.store
        backend = backend_cls()
        store = store_cls(
            backend,
            codec=plain.codec.name,
            incremental=plain.incremental,
            retention=plain.retention,
            chunk_size=plain.chunk_size,
        )
        storage.span_log = store.span_log = backend.span_log = log
        storage.store = store
        return storage
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"timed storage unavailable: {exc!r}", file=sys.stderr)
        return None
