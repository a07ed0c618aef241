"""repro.ckpt: the tiered checkpoint storage engine.

Checkpoint I/O dominates the paper's overhead tables once application
state grows; this package makes storage a first-class subsystem in the
lineage of the application-level checkpointing systems descended from C3
(SCR, VeloC):

* **backends** (in-memory, directory-on-disk) behind an atomic
  keyed-blob protocol (:mod:`repro.ckpt.backends`);
* **chunk codecs** compressing chunks with zlib/lzma or nothing
  (:mod:`repro.ckpt.codecs`);
* **incremental snapshots** that content-address the pickled state, each
  large array buffer on its own chunk boundaries, so unchanged regions cost
  zero bytes and are never copied or hashed (:mod:`repro.ckpt.delta`); the
  in-band pickle stream is deflated first, the buffers stay raw;
* **crash-consistent two-phase commit**: chunks first, then one atomic
  checksummed manifest — a failure mid-write never destroys the last good
  generation (:mod:`repro.ckpt.store`, :mod:`repro.ckpt.manifest`);
* **keep-last retention** bounding disk use (:mod:`repro.ckpt.retention`).

:class:`repro.statesave.storage.Storage` — what the protocol layer and
recovery driver talk to — is implemented on this engine.  A run's store is
incremental with no chunk codec; its directory and retention come from
``RunConfig.storage_path`` and ``ckpt_keep_last``.  Full snapshots, a chunk
codec and the chunk size are :class:`CheckpointStore` arguments.
"""

from repro.ckpt.backends import (
    Backend,
    DirectoryBackend,
    MemoryBackend,
)
from repro.ckpt.codecs import (
    ChunkCodec,
    LzmaCodec,
    NullCodec,
    ZlibCodec,
    get_chunk_codec,
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
]
