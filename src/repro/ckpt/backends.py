"""Storage backends: where checkpoint bytes physically live.

A backend is a flat keyed blob namespace with atomic publication: ``put``
must expose either the whole new value or the previous one, never a torn
mixture.  The directory backend gets this from tmp-file + fsync + rename
(:func:`repro.util.serialization.atomic_write_bytes`); the memory backend
is trivially atomic (single assignment under the GIL).

Keys are ``/``-separated paths (``objects/ab/abcdef…``,
``manifests/rank0/state/gen00000003.mft``); the directory backend maps
them directly onto the filesystem.
"""

from __future__ import annotations

import os
from typing import Protocol

from repro.errors import StorageError
from repro.util.serialization import atomic_write_bytes


class Backend(Protocol):
    """Atomic keyed blob storage."""

    def put(self, key: str, data: bytes) -> None: ...

    def get(self, key: str) -> bytes: ...

    def exists(self, key: str) -> bool: ...

    def size(self, key: str) -> int: ...

    def delete(self, key: str) -> None: ...

    def keys(self, prefix: str = "") -> list[str]: ...

    def wipe(self) -> None: ...


class MemoryBackend:
    """In-process dict store for tests and fast benchmark cells."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put(self, key: str, data: bytes) -> None:
        self._blobs[key] = bytes(data)

    def get(self, key: str) -> bytes:
        try:
            return self._blobs[key]
        except KeyError:
            raise StorageError(f"missing stable-storage object {key!r}") from None

    def exists(self, key: str) -> bool:
        return key in self._blobs

    def size(self, key: str) -> int:
        return len(self.get(key))

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._blobs if k.startswith(prefix))

    def wipe(self) -> None:
        self._blobs.clear()


class DirectoryBackend:
    """One file per key under a root directory, published atomically."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, *key.split("/"))

    def put(self, key: str, data: bytes) -> None:
        atomic_write_bytes(self._path(key), data)

    def get(self, key: str) -> bytes:
        path = self._path(key)
        if not os.path.exists(path):
            raise StorageError(f"missing stable-storage object {key!r}")
        with open(path, "rb") as fh:
            return fh.read()

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def size(self, key: str) -> int:
        path = self._path(key)
        if not os.path.exists(path):
            raise StorageError(f"missing stable-storage object {key!r}")
        return os.path.getsize(path)

    def delete(self, key: str) -> None:
        path = self._path(key)
        if os.path.exists(path):
            os.unlink(path)

    def keys(self, prefix: str = "") -> list[str]:
        # Walk only the subtree the prefix names: gc runs keys() many times
        # per commit and must not re-scan the whole store each time.
        prefix_dir, _sep, _leaf = prefix.rpartition("/")
        start = os.path.join(self.root, *prefix_dir.split("/")) if prefix_dir else self.root
        if not os.path.isdir(start):
            return []
        out = []
        for dirpath, _dirs, files in os.walk(start):
            for name in files:
                if ".tmp." in name:
                    continue  # in-flight atomic writes are not published keys
                full = os.path.join(dirpath, name)
                key = os.path.relpath(full, self.root).replace(os.sep, "/")
                if key.startswith(prefix):
                    out.append(key)
        return sorted(out)

    def wipe(self) -> None:
        for dirpath, _dirs, files in os.walk(self.root):
            for name in files:
                os.unlink(os.path.join(dirpath, name))

