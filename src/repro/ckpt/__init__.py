"""repro.ckpt: the tiered checkpoint storage engine.

Checkpoint I/O dominates the paper's overhead tables once application
state grows; this package makes storage a first-class subsystem in the
lineage of the application-level checkpointing systems descended from C3
(SCR, VeloC):

* pluggable **backends** (in-memory, directory-on-disk) behind an atomic
  keyed-blob protocol (:mod:`repro.ckpt.backends`);
* a **codec registry** compressing chunks with zlib/lzma or nothing
  (:mod:`repro.ckpt.codecs`);
* **incremental snapshots** that content-address the pickled state, each
  large array buffer on its own chunk boundaries, so unchanged regions cost
  zero bytes and are never copied or hashed (:mod:`repro.ckpt.delta`);
* **crash-consistent two-phase commit**: chunks first, then one atomic
  checksummed manifest — a failure mid-write never destroys the last good
  generation (:mod:`repro.ckpt.store`, :mod:`repro.ckpt.manifest`);
* **retention policies** (keep-last-K, keep-every-Nth) bounding disk use
  (:mod:`repro.ckpt.retention`).

:class:`repro.statesave.storage.Storage` — what the protocol layer and
recovery driver talk to — is implemented on this engine; the knobs are
surfaced as the ``ckpt_*`` fields of :class:`repro.runtime.config.RunConfig`.
"""

from repro.ckpt.backends import (
    Backend,
    DirectoryBackend,
    MemoryBackend,
    list_backends,
    make_backend,
    register_backend,
)
from repro.ckpt.codecs import (
    ChunkCodec,
    LzmaCodec,
    NullCodec,
    ZlibCodec,
    get_chunk_codec,
    list_chunk_codecs,
    register_chunk_codec,
)
from repro.ckpt.delta import DEFAULT_CHUNK_SIZE, DeltaStats, chunk_digest
from repro.ckpt.manifest import ChunkRef, GenerationManifest
from repro.ckpt.retention import RetentionPolicy
from repro.ckpt.store import CheckpointStore

__all__ = [
    "Backend",
    "CheckpointStore",
    "ChunkCodec",
    "ChunkRef",
    "DEFAULT_CHUNK_SIZE",
    "DeltaStats",
    "DirectoryBackend",
    "GenerationManifest",
    "LzmaCodec",
    "MemoryBackend",
    "NullCodec",
    "RetentionPolicy",
    "ZlibCodec",
    "chunk_digest",
    "get_chunk_codec",
    "list_backends",
    "list_chunk_codecs",
    "make_backend",
    "register_backend",
    "register_chunk_codec",
]
