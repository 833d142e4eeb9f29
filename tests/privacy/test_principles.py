"""Tests for the test-side checkers of the SA-aware principles (``tests/principle_oracles.py``)."""

from __future__ import annotations

import pytest

from repro.core import three_phase
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.table import Table
from tests.principle_oracles import (
    max_t_closeness_distance,
    satisfies_alpha_k_anonymity,
    satisfies_entropy_l_diversity,
    satisfies_recursive_cl_diversity,
    satisfies_t_closeness,
)


def _table2(hospital):
    return GeneralizedTable.from_partition(
        hospital, Partition([[0, 1], [2, 3], [4, 5, 6, 7], [8, 9]], 10)
    )


def _table3(hospital):
    return GeneralizedTable.from_partition(
        hospital, Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
    )


class TestEntropyLDiversity:
    def test_homogeneous_group_fails(self, hospital):
        assert not satisfies_entropy_l_diversity(_table2(hospital), 2)

    def test_balanced_groups_pass(self, hospital):
        # Every group of Table 3 has a uniform two-value SA distribution.
        assert satisfies_entropy_l_diversity(_table3(hospital), 2)

    def test_trivial_threshold(self, hospital):
        assert satisfies_entropy_l_diversity(_table2(hospital), 1)

    def test_invalid_l(self, hospital):
        with pytest.raises(ValueError):
            satisfies_entropy_l_diversity(_table3(hospital), 0)

    def test_entropy_is_stricter_than_frequency(self, hospital):
        """Entropy l-diversity implies frequency l-diversity, not vice versa."""
        generalized = _table3(hospital)
        if satisfies_entropy_l_diversity(generalized, 2):
            assert generalized.is_l_diverse(2)


class TestRecursiveCLDiversity:
    def test_table3_satisfies_for_large_c(self, hospital):
        assert satisfies_recursive_cl_diversity(_table3(hospital), c=3.0, l=2)

    def test_homogeneous_group_fails(self, hospital):
        assert not satisfies_recursive_cl_diversity(_table2(hospital), c=3.0, l=2)

    def test_too_few_distinct_values_fails(self, hospital):
        assert not satisfies_recursive_cl_diversity(_table3(hospital), c=100.0, l=3)

    def test_invalid_parameters(self, hospital):
        with pytest.raises(ValueError):
            satisfies_recursive_cl_diversity(_table3(hospital), c=0, l=2)
        with pytest.raises(ValueError):
            satisfies_recursive_cl_diversity(_table3(hospital), c=1.0, l=0)


class TestAlphaKAnonymity:
    def test_table2_is_half_2_anonymous_except_hiv_group(self, hospital):
        # The HIV group has 100% of one value, so alpha = 0.5 fails...
        assert not satisfies_alpha_k_anonymity(_table2(hospital), alpha=0.5, k=2)
        # ...but alpha = 1.0 reduces to plain 2-anonymity, which holds.
        assert satisfies_alpha_k_anonymity(_table2(hospital), alpha=1.0, k=2)

    def test_table3_is_half_2_anonymous(self, hospital):
        assert satisfies_alpha_k_anonymity(_table3(hospital), alpha=0.5, k=2)

    def test_group_size_requirement(self, hospital):
        assert not satisfies_alpha_k_anonymity(_table3(hospital), alpha=0.5, k=3)

    def test_invalid_parameters(self, hospital):
        with pytest.raises(ValueError):
            satisfies_alpha_k_anonymity(_table3(hospital), alpha=0, k=2)
        with pytest.raises(ValueError):
            satisfies_alpha_k_anonymity(_table3(hospital), alpha=0.5, k=0)


class TestTCloseness:
    def test_single_group_has_zero_distance(self, hospital):
        generalized = GeneralizedTable.from_partition(hospital, Partition.single_group(10))
        assert max_t_closeness_distance(generalized) == pytest.approx(0.0)
        assert satisfies_t_closeness(generalized, 0.0)

    def test_table2_distance_is_large(self, hospital):
        # The HIV group concentrates 100% mass on a value with 20% overall share.
        assert max_t_closeness_distance(_table2(hospital)) >= 0.7

    def test_threshold_monotonicity(self, hospital):
        generalized = _table3(hospital)
        distance = max_t_closeness_distance(generalized)
        assert satisfies_t_closeness(generalized, distance)
        assert not satisfies_t_closeness(generalized, distance - 0.05)

    def test_invalid_t(self, hospital):
        with pytest.raises(ValueError):
            satisfies_t_closeness(_table3(hospital), -0.1)

    def test_empty_table(self, hospital):
        empty = GeneralizedTable(hospital.schema, [], [], [])
        assert max_t_closeness_distance(empty) == 0.0


class TestEdgeCases:
    """Degenerate-input behaviour of every checker (pinned, not inferred)."""

    @staticmethod
    def _empty(hospital):
        return GeneralizedTable(hospital.schema, [], [], [])

    def test_empty_table_passes_every_group_wise_checker(self, hospital):
        # No groups -> nothing can violate a per-group condition.
        empty = self._empty(hospital)
        assert satisfies_entropy_l_diversity(empty, 2)
        assert satisfies_recursive_cl_diversity(empty, c=2.0, l=2)
        assert satisfies_alpha_k_anonymity(empty, alpha=0.5, k=2)
        assert satisfies_t_closeness(empty, 0.0)

    def test_single_group_table(self, hospital):
        generalized = GeneralizedTable.from_partition(
            hospital, Partition.single_group(10)
        )
        # One group == the whole table: t-closeness is trivially 0 and the
        # diversity checkers reduce to the table-wide histogram.
        assert satisfies_t_closeness(generalized, 0.0)
        assert satisfies_entropy_l_diversity(generalized, 2)
        assert satisfies_alpha_k_anonymity(generalized, alpha=0.5, k=10)
        assert not satisfies_alpha_k_anonymity(generalized, alpha=0.5, k=11)

    def test_l_equal_one_is_trivially_satisfied(self, hospital):
        # log(1) == 0 entropy threshold and a 1-element recursive tail that
        # always includes r_1 itself (for c > 1).
        assert satisfies_entropy_l_diversity(_table2(hospital), 1)
        assert satisfies_recursive_cl_diversity(_table3(hospital), c=2.0, l=1)

    def test_non_integer_entropy_l(self, hospital):
        generalized = _table3(hospital)
        # Table 3's groups are uniform over 2 values: entropy exactly log 2.
        assert satisfies_entropy_l_diversity(generalized, 1.5)
        assert satisfies_entropy_l_diversity(generalized, 2.0)
        assert not satisfies_entropy_l_diversity(generalized, 2.0001)

    def test_non_positive_c_rejected(self, hospital):
        with pytest.raises(ValueError):
            satisfies_recursive_cl_diversity(_table3(hospital), c=0, l=2)
        with pytest.raises(ValueError):
            satisfies_recursive_cl_diversity(_table3(hospital), c=-1.0, l=2)

    def test_t_closeness_on_a_one_value_sa_column(self, hospital):
        # Degenerate SA: every group's distribution equals the table's, so
        # every threshold (including 0) is satisfied in any partition.
        degenerate = Table(
            hospital.schema,
            hospital.qi_rows,
            [0] * len(hospital),
        )
        generalized = GeneralizedTable.from_partition(
            degenerate, Partition([[0, 1], [2, 3], [4, 5, 6, 7], [8, 9]], 10)
        )
        assert max_t_closeness_distance(generalized) == pytest.approx(0.0)
        assert satisfies_t_closeness(generalized, 0.0)


class TestOnAlgorithmOutput:
    def test_tp_output_auditable(self, small_census):
        projected = small_census.project(small_census.schema.qi_names[:3])
        result = three_phase.anonymize(projected, 4)
        generalized = result.generalized
        # Frequency 4-diversity holds by construction; the stricter principles
        # are simply measurable (no assertion on their truth value).
        assert generalized.is_l_diverse(4)
        assert isinstance(satisfies_entropy_l_diversity(generalized, 2), bool)
        assert isinstance(satisfies_recursive_cl_diversity(generalized, 2.0, 2), bool)
        assert satisfies_alpha_k_anonymity(generalized, alpha=0.25, k=4)
        assert 0.0 <= max_t_closeness_distance(generalized) <= 1.0
