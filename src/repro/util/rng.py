"""Deterministic, named random number streams.

Reproducibility is a hard requirement: every simulator run must be exactly
replayable from ``(seed, config)`` so that protocol bugs found by randomised
interleaving tests can be re-run.  We therefore never touch global RNG state;
each consumer derives its own :class:`RngStream` from the master seed and a
stable string name.

Streams
-------
``scheduler``
    ``Scheduler.pick_rank``'s random policy, one bounded pick per slice
    with more than one runnable rank.  **Block-read.**
``network``
    ``Network.post``'s delivery jitter, one exponential per message.
    **Block-read.**
``failure-injection``
    ``FailureSchedule.random``: a handful of draws before a run.  Scalar.
``app-rank-N``
    ``ctx.rng``, the application's own randomness.  Scalar, and it has to
    be: every checkpoint pickles it, so its state must be exactly "the
    draws made so far" — no block drawn ahead.
``chaos-campaign``
    ``repro.chaos.generator``: mixed ``choice`` / ``integers`` / ``random``
    calls while scenarios are generated.  Scalar.

Block reads
-----------
numpy's *scalar* draws are slow (about 1.9 us for ``integers(n)``, 0.6 us
for ``exponential(scale)``) and the first two streams pay one per
scheduling slice and per message.  Each of the two is dedicated to a
single consumer that asks for one kind of value, so it can be served from
a block of ``BLOCK`` draws — a list pop and a few integer operations per
draw — **without changing one value of the sequence**; every seeded
interleaving, golden fact and pinned chaos schedule stays where it is.
That rests on reproducing what numpy (2.x, ``PCG64``) does for a scalar
call:

* ``Generator.exponential(scale)`` is ``scale * standard_exponential()``,
  and an array fill walks the same ziggurat over the same bit stream as
  repeated scalar calls: :meth:`RngStream.next_exponential`.
* ``Generator.integers(n)`` for ``n <= 2**32`` takes 32-bit draws — each
  raw 64-bit word's low half, then its high half, the unused half kept for
  the next call — and maps one to ``[0, n)`` by Lemire's multiply-shift
  ``m = x * n``, result ``m >> 32``, redrawing while ``m & 0xFFFFFFFF <
  (2**32 - n) % n`` (a test entered only when ``m & 0xFFFFFFFF < n``);
  ``n == 1`` draws nothing: :meth:`RngStream.next_below`, over
  ``bit_generator.random_raw`` blocks.

``tests/util/test_rng.py`` drives both readers against the scalar calls
draw by draw (and is where a numpy release that changes either stream
shows up first); ``tests/simmpi/test_rng_differential.py`` does the same
for whole runs.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from a master seed and a stream name.

    Uses SHA-256 so unrelated names give statistically independent seeds and
    the mapping is stable across platforms and Python versions (unlike
    ``hash()``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


#: Draws per refill of a block-read stream.  One refill costs about 25 ns a
#: draw at any size; 1024 keeps a run's entries into numpy to a few dozen
#: while a run that needs ten draws wastes 25 us and 40 KB.
BLOCK = 1024

_MASK32 = 0xFFFFFFFF


class RngStream:
    """A named deterministic RNG stream backed by ``numpy.random.Generator``.

    A scalar-read stream is picklable (its full generator state travels
    with it) so application-level RNG state can be captured in checkpoints
    — though note that the C3 protocol treats post-checkpoint randomness as
    *non-determinism to be logged*, not state to be saved.

    A stream is read one way for life, decided by its first draw: the
    scalar methods, :meth:`next_below` or :meth:`next_exponential`.  A
    block reader has drawn ahead of what it handed out, so any other
    draw — and a pickle, which would lose the unread block — is refused
    with :class:`RuntimeError` instead of silently forking the sequence.
    """

    def __init__(self, master_seed: int, name: str) -> None:
        self.name = name
        self.seed = derive_seed(master_seed, name)
        self._gen = np.random.default_rng(self.seed)
        #: Who reads this stream: None until the first draw, then
        #: ``"scalar"``, ``"next_below"`` or ``"next_exponential"``.
        self._reader: str | None = None
        #: Unread part of the current block of raw 64-bit words
        #: (``next_below``) or standard exponentials (``next_exponential``),
        #: reversed so a draw is ``pop()``.
        self._words: list[int] = []
        self._exps: list[float] = []
        #: High half of the last raw word, owed to the next 32-bit draw.
        self._half: int | None = None

    def _claim(self, reader: str) -> np.random.Generator:
        """The generator, for ``reader`` — the first to ask owns the stream."""
        if self._reader is None:
            self._reader = reader
        elif self._reader != reader:
            raise RuntimeError(
                f"RNG stream {self.name!r} is read by {self._reader}; a "
                f"{reader} draw would interleave with it and change both "
                "sequences"
            )
        return self._gen

    # -- scalar draws (cold, mixed-use callers; checkpointable) ----------- #

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform integer in ``[low, high)`` (or ``[0, low)`` if high is None)."""
        return int(self._claim("scalar").integers(low, high))

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return float(self._claim("scalar").random())

    def exponential(self, scale: float) -> float:
        """Exponential variate with mean ``scale``."""
        return float(self._claim("scalar").exponential(scale))

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        if not len(seq):
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._claim("scalar").integers(len(seq)))]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle of a list."""
        gen = self._claim("scalar")
        for i in range(len(seq) - 1, 0, -1):
            j = int(gen.integers(i + 1))
            seq[i], seq[j] = seq[j], seq[i]

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Normal variate (used by applications for synthetic inputs)."""
        return float(self._claim("scalar").normal(loc, scale))

    # -- block readers (one dedicated per-event consumer each) ------------ #

    def _next32(self) -> int:
        """numpy's ``next_uint32`` over PCG64: each raw word's low half,
        then its high half, the pending half carried across refills."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        words = self._words
        if not words:
            raw = self._claim("next_below").bit_generator.random_raw(BLOCK)
            words = self._words = raw.tolist()
            words.reverse()
        word = words.pop()
        self._half = word >> 32
        return word & _MASK32

    def next_below(self, n: int) -> int:
        """Uniform integer in ``[0, n)``, ``1 <= n <= 2**32``: the value
        and the bits consumed are those of ``int(Generator.integers(n))``.

        Lemire's multiply-shift on 32-bit draws with numpy's rejection
        rule; ``n == 1`` consumes nothing, as in numpy.
        """
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:
            raise ValueError(f"next_below() takes 1 <= n <= 2**32, got {n!r}")
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def next_exponential(self, scale: float) -> float:
        """Exponential variate with mean ``scale``: the value and the bits
        consumed are those of ``float(Generator.exponential(scale))``
        (numpy computes ``scale * standard_exponential()`` per element, in
        an array fill and in a scalar call alike)."""
        exps = self._exps
        if not exps:
            gen = self._claim("next_exponential")
            exps = self._exps = gen.standard_exponential(BLOCK).tolist()
            exps.reverse()
        return scale * exps.pop()

    def spawn(self, name: str) -> "RngStream":
        """Derive a child stream with a qualified name."""
        return RngStream(self.seed, f"{self.name}/{name}")

    def __getstate__(self):
        if self._reader not in (None, "scalar"):
            raise RuntimeError(
                f"RNG stream {self.name!r} is block-read by {self._reader}; "
                "a pickle would lose its unread block"
            )
        return {"name": self.name, "seed": self.seed, "state": self._gen.bit_generator.state}

    def __setstate__(self, state):
        self.name = state["name"]
        self.seed = state["seed"]
        self._gen = np.random.default_rng(self.seed)
        self._gen.bit_generator.state = state["state"]
        # The restored bit generator may hold a pending 32-bit half that
        # only numpy's own scalar calls can see.
        self._reader = "scalar"
        self._words = []
        self._exps = []
        self._half = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(name={self.name!r}, seed={self.seed})"
