"""Cache-key fingerprints for farm jobs.

A farm cell is *content-addressed*: its cache key is a SHA-256 over

* the job function's qualified name (``module:qualname``),
* the canonical pickle of the job payload — for a sweep cell that is the
  (app reference, cell coordinates + params, RunConfig, failure schedule)
  tuple; for a chaos cell the (scenario, config, params, baseline
  probe) tuple, and
* a **code-version salt** — a digest over every ``*.py`` file of the
  :mod:`repro` package, so editing any simulator/protocol/storage code
  silently invalidates every cached outcome it could have influenced.

Pickle is a sound canonical form here because every payload the farm sees
is built from plain deterministic data (dataclasses, tuples, numbers,
strings, numpy arrays) constructed along the same code path each run;
dict iteration order is insertion order, and the memo table sees the same
object graph.  Payloads that cannot be pickled cannot be fingerprinted —
:func:`fingerprint` returns ``None`` and the farm executes them uncached.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Callable, Optional

_CODE_SALT: Optional[str] = None

#: Bumped when the farm's own record formats change shape.
SCHEMA_VERSION = 2


def code_salt() -> str:
    """Digest of the :mod:`repro` package's source tree (cached per process).

    Walks the package directory next to ``repro.__file__`` and hashes every
    ``.py`` file's path and contents, so any code change — not just farm
    code — produces a different salt and therefore different cache keys.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256(f"schema={SCHEMA_VERSION}".encode())
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                digest.update(rel.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _CODE_SALT = digest.hexdigest()
    return _CODE_SALT


def fn_identity(fn: Callable) -> str:
    """Portable identity of a module-level job function."""
    return f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', repr(fn))}"


def fingerprint(fn: Callable, payload: Any, salt: Optional[str] = None) -> Optional[str]:
    """The cell's cache key, or ``None`` when the payload defies pickling
    (closures, ad-hoc objects — such cells run uncached, exactly the set
    that also falls back to serial execution in ``Session.map``)."""
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    digest = hashlib.sha256()
    digest.update((salt if salt is not None else code_salt()).encode())
    digest.update(fn_identity(fn).encode())
    digest.update(blob)
    return digest.hexdigest()
