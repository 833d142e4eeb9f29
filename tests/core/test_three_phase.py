"""End-to-end tests of the TP driver (:mod:`repro.core.three_phase`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import three_phase
from repro.dataset.examples import phase_three_example, phase_two_example
from repro.dataset.table import Attribute, Schema, Table
from repro.errors import IneligibleTableError
from tests.conftest import make_random_table
from tests.strategies import eligible_tables
from tests.tp_oracle import NaiveGroupState, run_tp


class TestAnonymizeOnExamples:
    def test_hospital_terminates_in_phase_one_with_8_stars(self, hospital):
        result = three_phase.anonymize(hospital, 2)
        assert result.stats.phase_reached == 1
        assert result.star_count == 8
        assert result.suppressed_tuple_count == 4
        assert result.generalized.is_l_diverse(2)

    def test_phase_two_example(self, phase2_table):
        result = three_phase.anonymize(phase2_table, 3)
        assert result.stats.phase_reached == 2
        assert result.generalized.is_l_diverse(3)

    def test_phase_three_example(self):
        result = three_phase.anonymize(phase_three_example(), 4)
        assert result.stats.phase_reached == 3
        assert result.stats.phase3_rounds >= 1
        assert result.generalized.is_l_diverse(4)

    def test_stats_accounting(self, phase2_table):
        result = three_phase.anonymize(phase2_table, 3)
        stats = result.stats
        assert stats.l == 3
        assert (
            stats.phase1_moved + stats.phase2_moved + stats.phase3_moved
            == stats.removed_tuples
            == len(result.residue_rows)
        )
        assert stats.initial_group_count == phase2_table.distinct_qi_count
        assert stats.tuple_lower_bound >= 1
        assert stats.empirical_tuple_ratio >= 1.0


class TestAnonymizeValidation:
    def test_rejects_l_below_two(self, hospital):
        with pytest.raises(ValueError):
            three_phase.anonymize(hospital, 1)

    def test_rejects_ineligible_table(self, hospital):
        with pytest.raises(IneligibleTableError):
            three_phase.anonymize(hospital, 3)

    def test_partition_covers_every_row_exactly_once(self, random_table):
        result = three_phase.anonymize(random_table, 2)
        covered = sorted(row for group in result.partition for row in group)
        assert covered == list(range(len(random_table)))

    def test_residue_rows_are_a_group_of_the_partition(self, random_table):
        result = three_phase.anonymize(random_table, 2)
        if result.residue_rows:
            assert sorted(result.residue_rows) in [sorted(g) for g in result.partition]

    def test_deterministic(self, random_table):
        first = three_phase.anonymize(random_table, 2)
        second = three_phase.anonymize(random_table, 2)
        assert first.partition.groups == second.partition.groups
        assert first.star_count == second.star_count

    def test_naive_state_oracle_gives_same_run(self, random_table):
        fast = three_phase.anonymize(random_table, 2)
        slow = run_tp(random_table, 2, state_factory=NaiveGroupState)
        assert fast.residue_rows == slow.residue_rows()
        assert fast.stats == slow.stats

    def test_empty_table(self):
        schema = Schema(qi=(Attribute("Q", (0, 1)),), sensitive=Attribute("S", (0, 1)))
        table = Table(schema, [], [])
        result = three_phase.anonymize(table, 2)
        assert result.stats.phase_reached == 1
        assert result.stats.initial_group_count == 0
        assert result.star_count == 0
        assert result.residue_rows == []
        assert len(result.generalized) == 0


class TestAnonymizeProperties:
    @settings(deadline=None, max_examples=60)
    @given(table=eligible_tables(l=2, max_rows=16), l=st.integers(min_value=2, max_value=3))
    def test_output_is_l_diverse_whenever_feasible(self, table, l):
        if not table.is_l_eligible(l):
            return
        result = three_phase.anonymize(table, l)
        assert result.generalized.is_l_diverse(l)
        assert result.generalized.star_count() == result.star_count

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=2, max_value=6),
        l=st.integers(min_value=2, max_value=5),
        qi_domain=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=200),
    )
    def test_random_tables_roundtrip(self, n, m, l, qi_domain, seed):
        table = make_random_table(n, d=3, qi_domain=qi_domain, m=m, seed=seed)
        if not table.is_l_eligible(l):
            return
        result = three_phase.anonymize(table, l)
        assert result.generalized.is_l_diverse(l)
        # Retained groups never pay stars: stars come only from the residue.
        assert result.star_count <= table.dimension * len(result.residue_rows)
        # Sensitive values are never modified.
        assert result.generalized.sa_values == table.sa_values

    @settings(deadline=None, max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_zero_residue_means_zero_stars(self, n, seed):
        table = make_random_table(n, d=2, qi_domain=2, m=3, seed=seed)
        if not table.is_l_eligible(2):
            return
        result = three_phase.anonymize(table, 2)
        if not result.residue_rows:
            assert result.star_count == 0


class TestScaling:
    def test_runs_on_synthetic_census(self, small_census):
        projected = small_census.project(small_census.schema.qi_names[:4])
        result = three_phase.anonymize(projected, 6)
        assert result.generalized.is_l_diverse(6)
        assert result.stats.phase_reached in (1, 2, 3)
