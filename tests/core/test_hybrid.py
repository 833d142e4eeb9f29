"""Tests for the TP+ hybrid (Section 5.6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hybrid, three_phase
from repro.core.refiners import frequency_greedy_refiner, single_group_refiner
from repro.dataset.examples import phase_three_example
from repro.dataset.table import Attribute, Schema, Table
from repro.errors import AlgorithmInvariantError, IneligibleTableError
from tests.conftest import make_random_table


class TestHybridBasics:
    def test_output_is_l_diverse(self, hospital):
        result = hybrid.anonymize(hospital, 2)
        assert result.generalized.is_l_diverse(2)
        assert result.star_count == result.generalized.star_count()

    def test_never_worse_than_plain_tp(self, hospital):
        tp = three_phase.anonymize(hospital, 2)
        tp_plus = hybrid.anonymize(hospital, 2)
        assert tp_plus.star_count <= tp.star_count

    def test_never_worse_than_tp_on_census(self, small_census):
        projected = small_census.project(small_census.schema.qi_names[:4])
        tp = three_phase.anonymize(projected, 4)
        tp_plus = hybrid.anonymize(projected, 4)
        assert tp_plus.star_count <= tp.star_count
        assert tp_plus.generalized.is_l_diverse(4)

    def test_phase_three_example(self):
        result = hybrid.anonymize(phase_three_example(), 4)
        assert result.generalized.is_l_diverse(4)
        assert result.tp_stats.phase_reached == 3
        assert result.refined_group_count >= 1

    def test_single_group_refiner_reproduces_tp(self, random_table):
        tp = three_phase.anonymize(random_table, 2)
        tp_plus = hybrid.anonymize(random_table, 2, refiner=single_group_refiner)
        assert tp_plus.star_count == tp.star_count

    def test_frequency_refiner_is_valid(self, random_table):
        result = hybrid.anonymize(random_table, 2, refiner=frequency_greedy_refiner)
        assert result.generalized.is_l_diverse(2)

    def test_rejects_ineligible(self, hospital):
        with pytest.raises(IneligibleTableError):
            hybrid.anonymize(hospital, 3)

    def test_empty_table(self):
        schema = Schema(qi=(Attribute("Q", (0, 1)),), sensitive=Attribute("S", (0, 1)))
        result = hybrid.anonymize(Table(schema, [], []), 2)
        assert result.tp_stats.phase_reached == 1
        assert result.tp_stats.initial_group_count == 0
        assert result.star_count == 0
        assert result.refined_group_count == 0
        assert len(result.generalized) == 0

    def test_residue_rows_exposed(self, random_table):
        result = hybrid.anonymize(random_table, 2)
        tp = three_phase.anonymize(random_table, 2)
        assert sorted(result.residue_rows) == sorted(tp.residue_rows)


class TestRefinerValidation:
    def test_bad_refiner_not_covering_residue(self, random_table):
        def broken(table, rows, l):
            return [list(rows)[:-1]] if len(rows) > 1 else [list(rows)]

        tp = three_phase.anonymize(random_table, 2)
        if not tp.residue_rows or len(tp.residue_rows) < 2:
            pytest.skip("residue too small to exercise the check")
        with pytest.raises(AlgorithmInvariantError):
            hybrid.anonymize(random_table, 2, refiner=broken)

    def test_bad_refiner_breaking_eligibility(self, random_table):
        def broken(table, rows, l):
            return [[row] for row in rows]

        tp = three_phase.anonymize(random_table, 2)
        if not tp.residue_rows:
            pytest.skip("no residue to refine")
        with pytest.raises(AlgorithmInvariantError):
            hybrid.anonymize(random_table, 2, refiner=broken)


class TestHybridProperties:
    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(min_value=1, max_value=50),
        m=st.integers(min_value=2, max_value=5),
        l=st.integers(min_value=2, max_value=4),
        qi_domain=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=200),
    )
    def test_dominates_tp_and_stays_diverse(self, n, m, l, qi_domain, seed):
        table = make_random_table(n, d=2, qi_domain=qi_domain, m=m, seed=seed)
        if not table.is_l_eligible(l):
            return
        tp = three_phase.anonymize(table, l)
        tp_plus = hybrid.anonymize(table, l)
        assert tp_plus.generalized.is_l_diverse(l)
        assert tp_plus.star_count <= tp.star_count
        assert tp_plus.suppressed_tuple_count <= tp.suppressed_tuple_count
