"""Payload size accounting.

The simulator carries arbitrary Python objects as message payloads (numpy
arrays being the common case, as in mpi4py's uppercase methods).  For the
virtual-time cost model and for byte-level statistics (used to measure the
piggybacking overhead the paper discusses for Neurosys), every payload is
assigned a size in bytes by :func:`sizeof`.
"""

from __future__ import annotations

import pickle
import sys

import numpy as np

#: Overhead in bytes attributed to a message header on the wire.
HEADER_BYTES = 32

#: Bytes added to a message by the protocol's piggyback word (one 32-bit
#: word, :mod:`repro.util.intpack`).
PIGGYBACK_PACKED_BYTES = 4


#: Exact-type widths: the scalars that dominate payloads (protocol control
#: words among them) cost one probe.
_FIXED_WIDTH = {int: 8, float: 8, bool: 1, complex: 16, type(None): 0}


def sizeof(payload: object) -> int:
    """Best-effort wire size of a payload in bytes.

    numpy arrays report their buffer size; ``bytes``/``bytearray`` report
    their length; scalars report their native width; containers sum their
    elements plus a small per-element overhead; everything else falls
    back to the pickle length (an upper bound on a reasonable encoding).

    Exact builtin types are dispatched here; the rest (bytes, str, numpy
    scalars, subclasses, arbitrary objects) takes :func:`_sizeof_general`'s
    ``isinstance`` ladder.
    """
    kind = type(payload)
    width = _FIXED_WIDTH.get(kind)
    if width is not None:
        return width
    if kind is np.ndarray:
        return int(payload.nbytes)
    if kind is tuple or kind is list:
        return _sizeof_items(payload)
    if kind is dict:
        return _sizeof_mapping(payload)
    return _sizeof_general(payload)


def _sizeof_items(items) -> int:
    # Sum of elements plus a small per-element overhead; cheaper than
    # pickling and accurate for the homogeneous containers apps send.
    fixed = _FIXED_WIDTH.get
    total = 8 + 4 * len(items)
    for item in items:
        width = fixed(type(item))
        total += sizeof(item) if width is None else width
    return total


def _sizeof_mapping(mapping) -> int:
    fixed = _FIXED_WIDTH.get
    total = 8 + 8 * len(mapping)
    for key, value in mapping.items():
        width = fixed(type(key))
        total += sizeof(key) if width is None else width
        width = fixed(type(value))
        total += sizeof(value) if width is None else width
    return total


def _sizeof_general(payload: object) -> int:
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (bool, np.bool_)):
        return 1
    if isinstance(payload, (int, np.integer)):
        return 8
    if isinstance(payload, (float, np.floating)):
        return 8
    if isinstance(payload, complex):
        return 16
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        return _sizeof_items(payload)
    if isinstance(payload, dict):
        return _sizeof_mapping(payload)
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return sys.getsizeof(payload)
