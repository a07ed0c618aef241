"""``repro.farm`` — a content-keyed result cache for campaign execution.

The cache under :meth:`repro.Session.sweep` and chaos campaigns:

* :class:`Farm` — ``Farm.map`` is ``Session.map`` through a
  content-addressed result cache over a :mod:`repro.ckpt` backend; an
  interrupted campaign resumes on cache hits.
* :class:`FarmStats` — per-call cache accounting.
* :func:`fingerprint` / :func:`code_salt` — the cache key.
"""

from repro.farm.cache import ResultCache
from repro.farm.engine import Farm, FarmStats
from repro.farm.fingerprint import code_salt, fingerprint

__all__ = [
    "Farm",
    "FarmStats",
    "ResultCache",
    "code_salt",
    "fingerprint",
]
