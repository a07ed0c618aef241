"""Reduction operations (the MPI_Op analogue).

Operations work elementwise on numpy arrays and on Python scalars.  MAXLOC
and MINLOC follow MPI semantics on ``(value, index)`` pairs.  User-defined
operations wrap a binary callable; the C3 protocol records user-op creation
in its persistent-object call log so the op can be recreated on restart
(Section 5.2), which is why ops carry a stable ``name``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import SimMPIError


class Op:
    """A named, associative binary reduction operation."""

    _registry: dict[str, "Op"] = {}

    def __init__(self, name: str, fn: Callable[[Any, Any], Any], commutative: bool = True):
        self.name = name
        self.fn = fn
        self.commutative = commutative
        Op._registry[name] = self

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Op({self.name})"

    def __reduce__(self):
        # Ops pickle by name so checkpoints never serialise closures.
        return (Op.lookup, (self.name,))

    @staticmethod
    def lookup(name: str) -> "Op":
        try:
            return Op._registry[name]
        except KeyError:
            raise SimMPIError(f"unknown Op {name!r}; user ops must be re-created before restore") from None

    @staticmethod
    def create(name: str, fn: Callable[[Any, Any], Any], commutative: bool = True) -> "Op":
        """Create (or fetch) a user-defined op under a stable name."""
        existing = Op._registry.get(name)
        if existing is not None:
            return existing
        return Op(name, fn, commutative)


def _pairwise(fn):
    def wrapped(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return fn(np.asarray(a), np.asarray(b))
        return fn(a, b)
    return wrapped


def _maxloc(a, b):
    (va, ia), (vb, ib) = a, b
    if vb > va or (vb == va and ib < ia):
        return (vb, ib)
    return (va, ia)


def _minloc(a, b):
    (va, ia), (vb, ib) = a, b
    if vb < va or (vb == va and ib < ia):
        return (vb, ib)
    return (va, ia)


SUM = Op("SUM", _pairwise(lambda a, b: a + b))
PROD = Op("PROD", _pairwise(lambda a, b: a * b))
MAX = Op("MAX", _pairwise(np.maximum))
MIN = Op("MIN", _pairwise(np.minimum))
LAND = Op("LAND", _pairwise(np.logical_and))
LOR = Op("LOR", _pairwise(np.logical_or))
BAND = Op("BAND", _pairwise(lambda a, b: a & b))
BOR = Op("BOR", _pairwise(lambda a, b: a | b))
MAXLOC = Op("MAXLOC", _maxloc)
MINLOC = Op("MINLOC", _minloc)


def reduce_sequence(op: Op, values: list) -> Any:
    """Left fold of ``op`` over a non-empty list (rank order, as MPI requires
    for deterministic reductions)."""
    if not values:
        raise SimMPIError("cannot reduce an empty sequence")
    fn = op.fn
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc
