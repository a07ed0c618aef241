"""Tests for deterministic named RNG streams."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import BLOCK, RngStream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "net") == derive_seed(42, "net")

    def test_name_sensitivity(self):
        assert derive_seed(42, "net") != derive_seed(42, "sched")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "net") != derive_seed(2, "net")

    def test_nonnegative_63bit(self):
        s = derive_seed(123456789, "stream")
        assert 0 <= s < 2**63


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_names_differ(self):
        a = RngStream(7, "x")
        b = RngStream(7, "y")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_integers_bounds(self):
        s = RngStream(0, "ints")
        for _ in range(100):
            v = s.integers(5, 10)
            assert 5 <= v < 10

    def test_choice(self):
        s = RngStream(0, "choice")
        seq = ["a", "b", "c"]
        assert all(s.choice(seq) in seq for _ in range(20))

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RngStream(0, "c").choice([])

    def test_shuffle_is_permutation(self):
        s = RngStream(3, "sh")
        data = list(range(20))
        shuffled = list(data)
        s.shuffle(shuffled)
        assert sorted(shuffled) == data

    def test_pickle_resumes_midstream(self):
        """Checkpointed RNG state must resume exactly where it left off."""
        s = RngStream(9, "ck")
        _ = [s.random() for _ in range(5)]
        blob = pickle.dumps(s)
        expected = [s.random() for _ in range(5)]
        restored = pickle.loads(blob)
        assert [restored.random() for _ in range(5)] == expected

    def test_spawn_independent(self):
        parent = RngStream(1, "p")
        a = parent.spawn("child")
        b = parent.spawn("child")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_exponential_positive(self):
        s = RngStream(2, "exp")
        assert all(s.exponential(1e-5) >= 0 for _ in range(100))


#: What a differential failure below means, said where it will be read: the
#: readers reimplement numpy internals, so a numpy release that changes
#: ``Generator.integers`` shows up here first — not as 22 SHA mismatches.
NUMPY_MOVED = "numpy changed its bounded-integer stream; golden facts move with it"

#: Bounds around every branch of numpy's 32-bit Lemire path: no draw (1),
#: never rejected (powers of two), rejected about half the time (2**31 + 1),
#: the largest bounds and the bare half-word (2**32).
EDGE_BOUNDS = (
    1, 2, 5, 1_000_003, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32 - 1, 2**32,
)


def _scalar_twin(seed, name):
    """The numpy generator the stream wraps, to be driven one scalar call
    at a time."""
    return np.random.default_rng(derive_seed(seed, name))


def _count_half_words(stream):
    """Count the stream's 32-bit draws (rejections = draws - picks)."""
    calls = [0]
    inner = stream._next32

    def counting():
        calls[0] += 1
        return inner()

    stream._next32 = counting
    return calls


class TestBlockReadersAreNumpysScalarSequences:
    def test_bounded_picks_equal_generator_integers(self):
        bounds = random.Random(20)
        rejections = 0
        for seed, name in ((0, "scheduler"), (17, "scheduler"), (3, "other")):
            stream, twin = RngStream(seed, name), _scalar_twin(seed, name)
            half_words = _count_half_words(stream)
            picks = 0
            for i in range(20_000):
                # The scheduler's bounds and the edges, interleaved so a
                # pending half-word crosses between the two kinds.
                n = bounds.randint(2, 64) if i % 5 < 3 else bounds.choice(EDGE_BOUNDS)
                assert stream.next_below(n) == int(twin.integers(n)), (
                    f"{NUMPY_MOVED} (seed {seed}, draw {i}, bound {n})"
                )
                picks += n > 1
            rejections += half_words[0] - picks
        # 60 000 draws over > 50 refills; the rejection loop really ran.
        assert rejections > 1_000

    def test_bound_one_consumes_nothing(self):
        stream, twin = RngStream(4, "scheduler"), _scalar_twin(4, "scheduler")
        assert [stream.next_below(1) for _ in range(100)] == [0] * 100
        assert stream._reader is None, "no block may be drawn for n == 1"
        assert stream.next_below(7) == int(twin.integers(7)), NUMPY_MOVED

    @pytest.mark.parametrize("n", [0, -3, 2**32 + 1, 2**40])
    def test_out_of_range_bound_is_refused(self, n):
        with pytest.raises(ValueError):
            RngStream(0, "scheduler").next_below(n)

    def test_half_word_pending_at_a_block_boundary_is_served_first(self):
        stream, twin = RngStream(9, "scheduler"), _scalar_twin(9, "scheduler")
        # n == 2 never rejects, so each pick takes exactly one half-word:
        # after 2 * BLOCK - 1 of them the block is empty and the last
        # word's high half is still owed.
        for i in range(2 * BLOCK - 1):
            assert stream.next_below(2) == int(twin.integers(2)), NUMPY_MOVED
        assert not stream._words and stream._half is not None
        # The owed half comes before the refill, here and three blocks on
        # (2**31 + 1 rejects every other draw, so later boundaries are
        # reached at either parity).
        for i in range(3 * 2 * BLOCK + 1):
            n = (2, 2**31 + 1, 3)[i % 3]
            assert stream.next_below(n) == int(twin.integers(n)), (
                f"{NUMPY_MOVED} (draw {i} after the boundary, bound {n})"
            )

    @pytest.mark.parametrize("name", ["network", "other"])
    def test_exponentials_equal_generator_exponential(self, name):
        stream, twin = RngStream(11, name), _scalar_twin(11, name)
        for i in range(3 * BLOCK + 10):
            scale = (20e-6, 3.7)[i % 2]
            assert stream.next_exponential(scale) == float(twin.exponential(scale)), (
                f"numpy changed its exponential stream; golden facts move "
                f"with it (draw {i}, scale {scale})"
            )


class TestOneReaderPerStream:
    """A block reader has drawn ahead: any other draw on its stream, or a
    pickle, would fork the sequence or lose the unread block.  The stream
    refuses all of them (the builder's choice of the two the issue allows:
    refuse, not carry the block in ``__getstate__``)."""

    SCALAR_DRAWS = {
        "integers": lambda s: s.integers(5),
        "random": lambda s: s.random(),
        "exponential": lambda s: s.exponential(1.0),
        "choice": lambda s: s.choice([1, 2, 3]),
        "shuffle": lambda s: s.shuffle([1, 2, 3]),
        "normal": lambda s: s.normal(),
    }
    BLOCK_DRAWS = {
        "next_below": lambda s: s.next_below(5),
        "next_exponential": lambda s: s.next_exponential(1.0),
    }

    @pytest.mark.parametrize("scalar", sorted(SCALAR_DRAWS))
    @pytest.mark.parametrize("block", sorted(BLOCK_DRAWS))
    def test_scalar_draw_after_a_block_is_refused(self, block, scalar):
        stream = RngStream(1, "scheduler")
        self.BLOCK_DRAWS[block](stream)
        with pytest.raises(RuntimeError, match="interleave"):
            self.SCALAR_DRAWS[scalar](stream)

    @pytest.mark.parametrize("scalar", sorted(SCALAR_DRAWS))
    @pytest.mark.parametrize("block", sorted(BLOCK_DRAWS))
    def test_block_draw_after_a_scalar_draw_is_refused(self, block, scalar):
        stream = RngStream(1, "app-rank-0")
        self.SCALAR_DRAWS[scalar](stream)
        with pytest.raises(RuntimeError, match="interleave"):
            self.BLOCK_DRAWS[block](stream)

    def test_the_two_block_readers_exclude_each_other(self):
        stream = RngStream(1, "scheduler")
        stream.next_below(5)
        with pytest.raises(RuntimeError, match="interleave"):
            stream.next_exponential(1.0)

    @pytest.mark.parametrize("block", sorted(BLOCK_DRAWS))
    def test_pickling_a_block_read_stream_is_refused(self, block):
        stream = RngStream(1, "network")
        self.BLOCK_DRAWS[block](stream)
        with pytest.raises(RuntimeError, match="unread block"):
            pickle.dumps(stream)

    def test_a_refused_draw_leaves_the_stream_as_it_was(self):
        stream, twin = RngStream(6, "scheduler"), _scalar_twin(6, "scheduler")
        assert stream.next_below(9) == int(twin.integers(9))
        with pytest.raises(RuntimeError):
            stream.random()
        assert stream.next_below(9) == int(twin.integers(9))

    def test_a_restored_stream_is_scalar_for_life(self):
        """A pickled generator may hold a pending half-word only numpy's
        own scalar calls can see; block-reading it would drop that half."""
        stream = RngStream(2, "app-rank-1")
        stream.integers(10)
        restored = pickle.loads(pickle.dumps(stream))
        with pytest.raises(RuntimeError, match="interleave"):
            restored.next_below(10)
        assert restored.integers(10) == stream.integers(10)

    def test_scalar_stream_pickle_layout_is_unchanged(self):
        """Every checkpoint pickles ``ctx.rng``: a new key here would move
        the stored bytes of every golden V3 row."""
        assert sorted(RngStream(0, "app-rank-0").__getstate__()) == [
            "name", "seed", "state",
        ]


@given(st.integers(0, 2**32), st.text(min_size=1, max_size=12))
def test_derive_seed_stable_property(seed, name):
    assert derive_seed(seed, name) == derive_seed(seed, name)
    assert 0 <= derive_seed(seed, name) < 2**63
