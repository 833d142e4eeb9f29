"""Tests for the joint algorithm state (groups + residue, Section 5.1 vocabulary)."""

from __future__ import annotations

import pytest

from repro.core.state import AlgorithmState
from repro.dataset.examples import table_from_group_counts
from repro.dataset.table import Attribute, Schema, Table
from repro.errors import AlgorithmInvariantError, IneligibleTableError


class TestConstruction:
    def test_groups_match_qi_grouping(self, hospital):
        state = AlgorithmState(hospital, 2)
        assert state.group_count == hospital.distinct_qi_count
        total = sum(group.size for group in state.groups)
        assert total == len(hospital)
        assert state.residue.size == 0
        assert state.table is hospital
        assert state.l == 2

    def test_rejects_small_l(self, hospital):
        with pytest.raises(ValueError):
            AlgorithmState(hospital, 1)

    def test_rejects_ineligible_table(self, hospital):
        with pytest.raises(IneligibleTableError):
            AlgorithmState(hospital, 3)  # hospital is only 2-eligible

    def test_empty_table(self):
        schema = Schema(qi=(Attribute("Q", (0, 1)),), sensitive=Attribute("S", (0, 1)))
        state = AlgorithmState(Table(schema, [], []), 2)
        assert state.group_count == 0
        assert list(state.groups) == []
        assert state.ineligible_group_ids() == []
        assert state.values_to_groups() == {}
        assert state.retained_group_arrays() == []
        assert state.residue_rows() == []
        assert state.residue_is_eligible()

    def test_group_qi_vectors_are_distinct(self, hospital):
        state = AlgorithmState(hospital, 2)
        vectors = {state.group_qi_vector(group_id) for group_id in range(state.group_count)}
        assert len(vectors) == state.group_count


class TestMovement:
    def test_move_to_residue(self):
        table = table_from_group_counts([(2, 2, 0), (1, 1, 2)])
        state = AlgorithmState(table, 2)
        before = state.group(0).size
        row = state.move_to_residue(0, 0)
        assert state.group(0).size == before - 1
        assert state.residue.size == 1
        assert state.residue.count(0) == 1
        assert table.sa_value(row) == 0

    def test_removed_tuple_count(self):
        table = table_from_group_counts([(2, 2)])
        state = AlgorithmState(table, 2)
        assert state.removed_tuple_count() == 0
        state.move_to_residue(0, 0)
        state.move_to_residue(0, 1)
        assert state.removed_tuple_count() == 2


class TestVocabulary:
    def test_thin_fat(self):
        # group 0: (2, 2, 0) -> thin for l=2; group 1: (2, 2, 1) -> fat for l=2.
        table = table_from_group_counts([(2, 2, 0), (2, 2, 1)])
        state = AlgorithmState(table, 2)
        assert state.group_is_thin(0)
        assert not state.group_is_fat(0)
        assert state.group_is_fat(1)
        assert not state.group_is_thin(1)

    def test_conflicting_and_dead(self):
        table = table_from_group_counts([(2, 2), (1, 1)])
        state = AlgorithmState(table, 2)
        # Nothing in R yet: no conflicts, everything alive.
        assert not state.group_is_conflicting(0)
        assert state.group_is_alive(0)
        # Put a tuple with SA value 0 into R: value 0 becomes R's pillar.
        state.move_to_residue(1, 0)
        assert state.conflicting_pillars(0) == {0}
        assert state.group_is_conflicting(0)
        # Group 0 is thin and conflicting -> dead.
        assert state.group_is_dead(0)
        # Group 1 now holds a single tuple of value 1: pillar {1}, thin, and
        # 1 is not a pillar of R, so it stays alive.
        assert state.group_is_alive(1)

    def test_empty_group_is_dead(self):
        table = table_from_group_counts([(1, 1), (1, 1)])
        state = AlgorithmState(table, 2)
        state.move_to_residue(0, 0)
        state.move_to_residue(0, 1)
        assert state.group(0).size == 0
        assert state.group_is_dead(0)

    def test_residue_eligibility(self):
        table = table_from_group_counts([(1, 1), (1, 1)])
        state = AlgorithmState(table, 2)
        assert state.residue_is_eligible()  # empty residue
        state.move_to_residue(0, 0)
        assert not state.residue_is_eligible()
        state.move_to_residue(0, 1)
        assert state.residue_is_eligible()


class TestOutputs:
    def test_retained_and_residue_rows_cover_table(self):
        table = table_from_group_counts([(2, 2, 1), (1, 1, 1)])
        state = AlgorithmState(table, 2)
        state.move_to_residue(0, 0)
        state.move_to_residue(1, 2)
        retained = [int(row) for group in state.retained_group_arrays() for row in group]
        residue = state.residue_rows()
        assert sorted(retained + residue) == list(range(len(table)))
        assert len(residue) == 2


class TestPhaseOneShave:
    def test_shave_rejects_a_mutated_group(self):
        table = table_from_group_counts([(5, 1, 1), (0, 4, 4)])
        state = AlgorithmState(table, 2)
        state.move_to_residue(0, 0)
        with pytest.raises(AlgorithmInvariantError):
            state.shave_group_bulk(0)
