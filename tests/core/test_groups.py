"""Tests for the inverted-list group state (Section 5.5 data structure)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.groups import GroupState
from tests.tp_oracle import NaiveGroupState


class TestGroupStateBasics:
    def test_empty_state(self):
        state = GroupState()
        assert state.size == 0
        assert state.height == 0
        assert state.pillars() == set()
        assert state.values_present() == []
        assert state.is_l_eligible(5)

    def test_add_and_counts(self):
        state = GroupState.from_pairs([(1, 10), (1, 11), (2, 12)])
        assert state.size == 3
        assert state.count(1) == 2
        assert state.count(2) == 1
        assert state.count(99) == 0
        assert state.height == 2
        assert state.pillars() == {1}
        assert state.distinct_value_count() == 2

    def test_rows_tracking(self):
        state = GroupState.from_pairs([(1, 10), (2, 20), (1, 30)])
        assert sorted(state.rows()) == [10, 20, 30]
        assert sorted(state.rows_of(1)) == [10, 30]
        assert state.rows_of(5) == []

    def test_remove_returns_row(self):
        state = GroupState.from_pairs([(1, 10), (1, 11)])
        row = state.remove_one(1)
        assert row in (10, 11)
        assert state.count(1) == 1
        assert state.size == 1

    def test_remove_missing_value_raises(self):
        state = GroupState()
        with pytest.raises(KeyError):
            state.remove_one(3)

    def test_height_decreases_after_removals(self):
        state = GroupState.from_pairs([(1, 0), (1, 1), (1, 2), (2, 3)])
        assert state.height == 3
        state.remove_one(1)
        assert state.height == 2
        state.remove_one(1)
        assert state.height == 1
        assert state.pillars() == {1, 2}

    def test_height_increases_when_adding(self):
        state = GroupState()
        for row in range(4):
            state.add(7, row)
            assert state.height == row + 1
            assert state.pillars() == {7}

    def test_thin_and_fat(self):
        # size 4, height 2 -> thin for l=2, neither for l=3.
        state = GroupState.from_pairs([(0, 0), (0, 1), (1, 2), (2, 3)])
        assert state.is_thin(2)
        assert not state.is_fat(2)
        assert not state.is_thin(3)
        assert not state.is_fat(3)
        state.add(3, 4)
        assert state.is_fat(2)

    def test_counts_copy(self):
        state = GroupState.from_pairs([(0, 0), (1, 1)])
        counts = state.counts()
        counts[0] = 99
        assert state.count(0) == 1


class TestNaiveEquivalence:
    """The bucketed and naive implementations must agree on every operation."""

    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), st.integers(min_value=0, max_value=5)),
            max_size=60,
        )
    )
    def test_random_operation_sequences(self, operations):
        fast = GroupState()
        slow = NaiveGroupState()
        next_row = 0
        for kind, value in operations:
            if kind == "add":
                fast.add(value, next_row)
                slow.add(value, next_row)
                next_row += 1
            else:
                if fast.count(value) == 0:
                    with pytest.raises(KeyError):
                        fast.remove_one(value)
                    with pytest.raises(KeyError):
                        slow.remove_one(value)
                    continue
                fast.remove_one(value)
                slow.remove_one(value)
            assert fast.size == slow.size
            assert fast.height == slow.height
            assert fast.pillars() == slow.pillars()
            assert fast.counts() == slow.counts()
            assert fast.values_present() == slow.values_present()
            for l in (1, 2, 3):
                assert fast.is_l_eligible(l) == slow.is_l_eligible(l)
                assert fast.is_thin(l) == slow.is_thin(l)
                assert fast.is_fat(l) == slow.is_fat(l)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=100)),
            max_size=40,
        )
    )
    def test_from_pairs_equivalence(self, pairs):
        fast = GroupState.from_pairs(pairs)
        slow = NaiveGroupState.from_pairs(pairs)
        assert fast.counts() == slow.counts()
        assert fast.height == slow.height
        assert sorted(fast.rows()) == sorted(slow.rows())
