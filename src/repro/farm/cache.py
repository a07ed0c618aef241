"""The content-addressed result cache.

Stores one framed, checksummed pickle per cache key in a
:mod:`repro.ckpt` backend — the same pluggable backend the checkpoint
engine uses, so a farm directory sits next to (or inside) a checkpoint
directory::

    results/<k0k1>/<key>     -- framed pickle of the cell's outcome
    meta/FARM                -- farm metadata (schema)

Because cell outcomes are deterministic functions of their fingerprint
(seeded simulation + code salt), a hit can simply be deserialised and
returned: it is bit-identical to what re-executing the cell would produce.
"""

from __future__ import annotations

import json
from typing import Any

from repro.ckpt.backends import Backend
from repro.errors import StorageError
from repro.farm.fingerprint import SCHEMA_VERSION
from repro.util.serialization import dumps_framed, loads_framed

META_KEY = "meta/FARM"


class ResultCache:
    """Keyed outcome store over a checkpoint backend."""

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        if backend.exists(META_KEY):
            self._check_meta()
        else:
            blob = json.dumps({"schema": SCHEMA_VERSION}, sort_keys=True)
            backend.put(META_KEY, blob.encode("utf-8"))

    def _check_meta(self) -> None:
        try:
            meta = json.loads(self.backend.get(META_KEY).decode("utf-8"))
        except Exception as exc:
            raise StorageError(f"unreadable farm metadata at {META_KEY!r}: {exc}") from exc
        if meta.get("schema") != SCHEMA_VERSION:
            raise StorageError(
                f"farm directory speaks schema {meta.get('schema')!r}, "
                f"this build speaks {SCHEMA_VERSION}; use a fresh --farm-dir"
            )

    @staticmethod
    def _result_key(key: str) -> str:
        return f"results/{key[:2]}/{key}"

    def has(self, key: str) -> bool:
        return self.backend.exists(self._result_key(key))

    def get(self, key: str) -> Any:
        """Deserialise one cached outcome (hit/miss accounting lives in
        :class:`repro.farm.engine.FarmStats`, not here)."""
        blob = self.backend.get(self._result_key(key))
        try:
            return loads_framed(blob)
        except Exception as exc:
            raise StorageError(
                f"cached result {key[:12]}… failed to decode: {exc}"
            ) from exc

    def put(self, key: str, value: Any) -> None:
        self.backend.put(self._result_key(key), dumps_framed(value))
