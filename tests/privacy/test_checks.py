"""Tests for the privacy checkers."""

from __future__ import annotations

import pytest

from repro.core import three_phase
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.privacy.checks import adversary_confidence, diversity_report


def _table2(hospital):
    """The paper's Table 2 (2-anonymous, not 2-diverse)."""
    return GeneralizedTable.from_partition(
        hospital, Partition([[0, 1], [2, 3], [4, 5, 6, 7], [8, 9]], 10)
    )


def _table3(hospital):
    """The paper's Table 3 (2-diverse)."""
    return GeneralizedTable.from_partition(
        hospital, Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
    )


class TestVerification:
    def test_table2_k_anonymous_not_diverse(self, hospital):
        generalized = _table2(hospital)
        assert generalized.is_k_anonymous(2)
        assert not generalized.is_l_diverse(2)

    def test_table3_diverse(self, hospital):
        generalized = _table3(hospital)
        assert generalized.is_l_diverse(2)
        assert generalized.is_k_anonymous(2)
        assert not generalized.is_l_diverse(3)

    def test_tp_output_verifies(self, hospital):
        result = three_phase.anonymize(hospital, 2)
        assert result.generalized.is_l_diverse(2)


class TestDiversityReport:
    def test_table2_report(self, hospital):
        report = diversity_report(_table2(hospital))
        assert report.group_count == 4
        assert report.min_group_size == 2
        # The homogeneity problem: the HIV group gives 100% confidence.
        assert report.max_confidence == 1.0
        assert report.achieved_l == 1

    def test_table3_report(self, hospital):
        report = diversity_report(_table3(hospital))
        assert report.group_count == 3
        assert report.max_confidence == pytest.approx(0.5)
        assert report.achieved_l == 2

    def test_adversary_confidence_bound(self, hospital):
        assert adversary_confidence(_table3(hospital)) <= 0.5
        assert adversary_confidence(_table2(hospital)) == 1.0

    def test_empty_table_report(self, hospital):
        empty = GeneralizedTable(hospital.schema, [], [], [])
        report = diversity_report(empty)
        assert report.group_count == 0
        assert report.achieved_l == 0
