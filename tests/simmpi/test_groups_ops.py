"""Groups, reduction ops, clock, and datatype size accounting."""

import pickle

import numpy as np
import pytest

from repro.errors import SimMPIError
from repro.simmpi.clock import CostModel, VirtualClock
from repro.simmpi.datatypes import sizeof
from repro.simmpi.group import Group
from repro.simmpi.op import MAX, MAXLOC, MINLOC, SUM, Op, reduce_sequence


class TestGroup:
    def test_world(self):
        g = Group.world(4)
        assert g.size == 4
        assert g.members == (0, 1, 2, 3)

    def test_rank_translation(self):
        g = Group((5, 2, 7))
        assert g.rank_of(2) == 1
        assert g.world_rank(2) == 7
        assert g.contains(5) and not g.contains(0)

    def test_subset(self):
        g = Group((5, 2, 7)).subset([0, 2])
        assert g.members == (5, 7)

    def test_translate_between_groups(self):
        a = Group((0, 1, 2, 3))
        b = Group((2, 3))
        assert a.translate(b, 2) == 0
        assert a.translate(b, 0) is None

    def test_duplicates_rejected(self):
        with pytest.raises(SimMPIError):
            Group((1, 1))

    def test_out_of_range(self):
        with pytest.raises(SimMPIError):
            Group((0, 1)).world_rank(5)


class TestOps:
    def test_scalar_sum(self):
        assert SUM(2, 3) == 5

    def test_array_elementwise(self):
        out = MAX(np.array([1, 5]), np.array([4, 2]))
        assert out.tolist() == [4, 5]

    def test_maxloc_minloc(self):
        assert MAXLOC((3.0, 0), (5.0, 1)) == (5.0, 1)
        assert MAXLOC((5.0, 2), (5.0, 1)) == (5.0, 1)  # ties: lowest index
        assert MINLOC((3.0, 0), (5.0, 1)) == (3.0, 0)

    def test_reduce_sequence_order(self):
        op = Op.create("CONCAT-test", lambda a, b: a + b, commutative=False)
        assert reduce_sequence(op, ["a", "b", "c"]) == "abc"

    def test_reduce_empty_rejected(self):
        with pytest.raises(SimMPIError):
            reduce_sequence(SUM, [])

    def test_op_pickles_by_name(self):
        restored = pickle.loads(pickle.dumps(SUM))
        assert restored is SUM

    def test_user_op_pickle_roundtrip(self):
        op = Op.create("user-xor-test", lambda a, b: a ^ b)
        assert pickle.loads(pickle.dumps(op)) is op

    def test_unknown_op_lookup(self):
        with pytest.raises(SimMPIError):
            Op.lookup("never-registered")


class TestClock:
    def test_charge_accumulates(self):
        clock = VirtualClock()
        clock.charge(1.0)
        clock.charge(0.5)
        assert clock.now == pytest.approx(1.5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().charge(-1)

    def test_advance_never_backwards(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        clock.advance_to(1.0)
        assert clock.now == 2.0

    def test_cost_model(self):
        cm = CostModel(alpha=1e-6, beta=1e-9, flop=1e-9)
        assert cm.message_cost(1000) == pytest.approx(2e-6)
        assert cm.compute_cost(1e6) == pytest.approx(1e-3)


class TestSizeof:
    @pytest.mark.parametrize(
        "payload,expected",
        [
            (None, 0),
            (True, 1),
            (7, 8),
            (3.14, 8),
            (1 + 2j, 16),
            (b"abcd", 4),
            ("héllo", 6),
        ],
    )
    def test_scalars(self, payload, expected):
        assert sizeof(payload) == expected

    def test_ndarray_exact(self):
        assert sizeof(np.zeros((10, 10))) == 800

    def test_containers_scale(self):
        small = sizeof([1.0] * 4)
        large = sizeof([1.0] * 400)
        assert large > small * 50

    def test_arbitrary_object_falls_back_to_pickle(self):
        class Thing:
            pass

        assert sizeof(Thing()) > 0

    def test_sizes_by_type(self):
        """Every kind of payload, exact builtin or subclass, nested or not,
        sizes by the documented rule: scalar widths, buffer lengths,
        8 + 4/element for sequences, 8 + 8/entry for mappings."""
        from collections import namedtuple

        pair = namedtuple("pair", "a b")
        cases = [
            (None, 0), (True, 1), (7, 8), (3.14, 8), (1 + 2j, 16),
            (b"abcd", 4), (bytearray(3), 3), ("héllo", 6),
            (np.zeros(5), 40), (np.float64(1.5), 8), (np.int32(3), 8),
            (np.bool_(True), 1), ([], 8), ({}, 8), ((), 8),
            ((1, 2.0, None), 8 + (8 + 4) + (8 + 4) + (0 + 4)),
            ((1, 2.0, False), 37),
            ([1, [2, (3, "x")], np.ones(2)], 93),
            (pair(1, (2, 3)), 56),
            ({0: 1.5}, 8 + (8 + 8 + 8)),
            ({0: np.zeros(3), 1: (1, 2)}, 96),
            ({"k": [1.0, True], 2: {3: 4}}, 90),
        ]
        for payload, expected in cases:
            assert sizeof(payload) == expected, repr(payload)

    def test_value_sized_classes_pickle_once_per_value(self, monkeypatch):
        import pickle

        from repro.protocol.control import MySendCount as Token
        from repro.simmpi import datatypes

        assert Token.sizeof_by_value
        monkeypatch.setattr(datatypes, "_PICKLED_SIZE", {})
        expected = len(pickle.dumps(Token(3, 1, 0), protocol=pickle.HIGHEST_PROTOCOL))
        assert sizeof(Token(3, 1, 0)) == sizeof(Token(3, 1, 0)) == expected
        assert list(datatypes._PICKLED_SIZE) == [Token(3, 1, 0)]
        monkeypatch.setattr(datatypes, "_PICKLED_SIZE_LIMIT", 1)
        assert sizeof(Token(4, 1, 0)) == expected  # the memo is bounded: it restarts
        assert list(datatypes._PICKLED_SIZE) == [Token(4, 1, 0)]

    def test_cached_value_size_is_answered_before_the_isinstance_ladder(
        self, monkeypatch
    ):
        from dataclasses import dataclass

        from repro.protocol.control import MySendCount, StoppedLogging
        from repro.simmpi import datatypes

        @dataclass(frozen=True)
        class Plain:  # frozen and hashable, but no sizeof_by_value promise
            epoch: int

        monkeypatch.setattr(datatypes, "_PICKLED_SIZE", {})
        first = {t: sizeof(t) for t in (MySendCount(2, 1, 0), StoppedLogging(2, 1))}
        for token, size in first.items():
            assert size == len(pickle.dumps(token, protocol=pickle.HIGHEST_PROTOCOL))

        def ladder(payload):
            raise AssertionError(f"{payload!r} took the isinstance ladder")

        monkeypatch.setattr(datatypes, "_sizeof_general", ladder)
        # Equal values of the same exact class hit the cache; an equal-field
        # token of another class does not alias a cached one.
        assert sizeof(MySendCount(2, 1, 0)) == first[MySendCount(2, 1, 0)]
        assert sizeof(StoppedLogging(2, 1)) == first[StoppedLogging(2, 1)]
        with pytest.raises(AssertionError, match="ladder"):
            sizeof(MySendCount(2, 1, 5))  # a new value is sized once, by pickle
        with pytest.raises(AssertionError, match="ladder"):
            sizeof(Plain(2))
