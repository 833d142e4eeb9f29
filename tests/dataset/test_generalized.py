"""Tests for partitions, suppression (Definition 1) and generalized tables."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypothesis import settings

from repro.dataset.generalized import STAR, GeneralizedTable, Partition, cell_contains, cell_size
from tests.conftest import make_random_table
from tests.group_oracles import is_k_anonymous_reference, is_l_diverse_reference
from tests.strategies import tables_with_partitions


class TestCellHelpers:
    def test_cell_size(self):
        assert cell_size(3, domain_size=10) == 1
        assert cell_size(frozenset({1, 2, 3}), domain_size=10) == 3
        assert cell_size(STAR, domain_size=10) == 10

    def test_cell_contains(self):
        assert cell_contains(3, 3, 10)
        assert not cell_contains(3, 4, 10)
        assert cell_contains(frozenset({1, 2}), 2, 10)
        assert not cell_contains(frozenset({1, 2}), 5, 10)
        assert cell_contains(STAR, 9, 10)
        assert not cell_contains(STAR, 10, 10)

    def test_star_is_singleton(self):
        assert STAR is type(STAR)()
        assert repr(STAR) == "*"


class TestPartition:
    def test_valid_partition(self):
        partition = Partition([[0, 2], [1]], 3)
        assert len(partition) == 2
        assert partition.group_sizes() == [2, 1]
        assert partition.group_of() == [0, 1, 0]

    def test_empty_groups_dropped(self):
        partition = Partition([[0], [], [1]], 2)
        assert len(partition) == 2

    def test_missing_row_rejected(self):
        with pytest.raises(ValueError):
            Partition([[0]], 2)

    def test_duplicate_row_rejected(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], [1]], 2)

    def test_out_of_range_row_rejected(self):
        with pytest.raises(ValueError):
            Partition([[0, 5]], 2)

    def test_single_group(self):
        partition = Partition.single_group(4)
        assert len(partition) == 1
        assert partition[0] == [0, 1, 2, 3]

    def test_by_qi(self, hospital):
        partition = Partition.by_qi(hospital)
        assert len(partition) == hospital.distinct_qi_count

    def test_is_l_diverse(self, hospital):
        # The paper's Table 3 partition: {1,2,3,4}, {5..8}, {9,10} (0-based).
        table3 = Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        assert table3.is_l_diverse(hospital, 2)
        # The Table 2 partition is 2-anonymous but not 2-diverse (HIV group).
        table2 = Partition([[0, 1], [2, 3], [4, 5, 6, 7], [8, 9]], 10)
        assert not table2.is_l_diverse(hospital, 2)


class TestSuppression:
    def test_paper_table3_star_count(self, hospital):
        """The paper's Table 3 has 8 stars (4 on Age, 4 on Education)."""
        partition = Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        generalized = GeneralizedTable.from_partition(hospital, partition)
        assert generalized.star_count() == 8
        assert generalized.suppressed_tuple_count() == 4
        assert generalized.is_l_diverse(2)

    def test_paper_table2_star_count(self, hospital):
        """The paper's Table 2 has 2 stars (Age of Calvin and Danny)."""
        partition = Partition([[0, 1], [2, 3], [4, 5, 6, 7], [8, 9]], 10)
        generalized = GeneralizedTable.from_partition(hospital, partition)
        assert generalized.star_count() == 2
        assert generalized.suppressed_tuple_count() == 2
        assert generalized.is_k_anonymous(2)
        assert not generalized.is_l_diverse(2)

    def test_zero_star_partition(self, hospital):
        partition = Partition.by_qi(hospital)
        generalized = GeneralizedTable.from_partition(hospital, partition)
        assert generalized.star_count() == 0
        assert generalized.suppressed_tuple_count() == 0

    def test_single_group_stars(self, hospital):
        partition = Partition.single_group(len(hospital))
        generalized = GeneralizedTable.from_partition(hospital, partition)
        # All three QI attributes have more than one value overall.
        assert generalized.star_count() == 3 * len(hospital)

    def test_sensitive_values_retained(self, hospital):
        partition = Partition.single_group(len(hospital))
        generalized = GeneralizedTable.from_partition(hospital, partition)
        assert generalized.sa_values == hospital.sa_values

    def test_partition_size_mismatch(self, hospital):
        with pytest.raises(ValueError):
            GeneralizedTable.from_partition(hospital, Partition.single_group(3))

    def test_decoded_records_render_stars(self, hospital):
        partition = Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        generalized = GeneralizedTable.from_partition(hospital, partition)
        record = generalized.decoded_record(2)  # Calvin
        assert record["Age"] == "*"
        assert record["Education"] == "*"
        assert record["Gender"] == "M"
        assert record["Disease"] == "pneumonia"

    def test_groups_mapping(self, hospital):
        partition = Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        generalized = GeneralizedTable.from_partition(hospital, partition)
        groups = generalized.groups()
        assert sorted(len(rows) for rows in groups.values()) == [2, 4, 4]


class TestPrivacyChecksOverExplicitGroupIds:
    """Dense, gapped and negative explicit group ids all take the array path
    and agree with the row-at-a-time oracles."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), case=tables_with_partitions(max_rows=12))
    def test_checks_match_the_oracles(self, data, case):
        table, partition = case
        published = GeneralizedTable.from_partition(table, partition)
        group_count = len(partition)
        kind = data.draw(st.sampled_from(["dense", "gapped", "negative"]))
        if kind == "dense":
            ids = list(range(group_count))
        else:
            low = -40 if kind == "negative" else 0
            ids = data.draw(
                st.lists(
                    st.integers(low, 40), min_size=group_count,
                    max_size=group_count, unique=True,
                )
            )
            if kind == "negative" and min(ids) >= 0:
                ids = [gid - 41 for gid in ids]
        group_of = {row: gid for gid, rows in zip(ids, partition.groups) for row in rows}
        relabelled = GeneralizedTable(
            published.schema,
            published.cell_rows,
            published.sa_values,
            [group_of[row] for row in range(len(table))],
        )
        for bound in (1, 2, 3, 4):
            assert relabelled.is_l_diverse(bound) == is_l_diverse_reference(
                relabelled, bound
            )
            assert relabelled.is_k_anonymous(bound) == is_k_anonymous_reference(
                relabelled, bound
            )


class TestGeneralizedTableValidation:
    def test_wrong_cell_dimension_rejected(self, hospital):
        with pytest.raises(ValueError):
            GeneralizedTable(hospital.schema, [(0,)], [0], [0])

    def test_length_mismatch_rejected(self, hospital):
        with pytest.raises(ValueError):
            GeneralizedTable(hospital.schema, [(0, 0, 0)], [0, 1], [0])

    def test_invalid_l_rejected(self, hospital):
        generalized = GeneralizedTable.from_partition(
            hospital, Partition.single_group(len(hospital))
        )
        with pytest.raises(ValueError):
            generalized.is_l_diverse(0)
        with pytest.raises(ValueError):
            generalized.is_k_anonymous(0)

    def test_subdomain_cells_counted_as_generalized_not_stars(self, hospital):
        cells = []
        for row in range(len(hospital)):
            qi = hospital.qi_row(row)
            cells.append((frozenset({0, 1}), qi[1], qi[2]))
        generalized = GeneralizedTable(
            hospital.schema, cells, hospital.sa_values, [0] * len(hospital)
        )
        assert generalized.star_count() == 0
        assert generalized.generalized_cell_count() == len(hospital)


class TestSuppressionProperties:
    @given(
        n=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=40),
        group_count=st.integers(min_value=1, max_value=5),
    )
    def test_definition1_star_consistency(self, n, seed, group_count):
        """Within a group an attribute is starred iff the group disagrees on it."""
        table = make_random_table(n, d=3, seed=seed)
        groups = [[] for _ in range(min(group_count, n))]
        for row in range(n):
            groups[row % len(groups)].append(row)
        partition = Partition(groups, n)
        generalized = GeneralizedTable.from_partition(table, partition)
        for group in partition:
            for position in range(table.dimension):
                values = {table.qi_row(row)[position] for row in group}
                cells = {generalized.cell(row, position) for row in group}
                assert len(cells) == 1
                cell = cells.pop()
                if len(values) == 1:
                    assert cell == values.pop()
                else:
                    assert cell is STAR


class TestColumnarPublishOracle:
    """The lazy columnar ``from_partition`` against the serial oracle."""

    @staticmethod
    def _assert_identical(fast: GeneralizedTable, oracle: GeneralizedTable):
        assert fast.cell_rows == oracle.cell_rows
        assert fast.sa_values == oracle.sa_values
        assert fast.group_ids == oracle.group_ids
        assert fast.star_count() == oracle.star_count()
        assert fast.suppressed_tuple_count() == oracle.suppressed_tuple_count()
        assert fast.star_mask().tolist() == oracle.star_mask().tolist()

    @given(case=tables_with_partitions(max_rows=12))
    @settings(deadline=None)
    def test_bit_identical_to_reference(self, case):
        table, partition = case
        fast = GeneralizedTable.from_partition(table, partition)
        oracle = GeneralizedTable.from_partition_reference(table, partition)
        self._assert_identical(fast, oracle)

    @given(case=tables_with_partitions(max_rows=10))
    @settings(deadline=None, max_examples=25)
    def test_row_tuples_stay_unmaterialized_until_asked(self, case):
        table, partition = case
        fast = GeneralizedTable.from_partition(table, partition)
        if len(table):
            assert fast._cells_rows is None
            # Counts come off the columnar form without building row tuples.
            fast.star_count()
            fast.suppressed_tuple_count()
            fast.star_mask()
            assert fast._cells_rows is None
        assert len(fast._cells) == len(table)

    @given(case=tables_with_partitions(max_rows=10))
    @settings(deadline=None, max_examples=25)
    def test_columnar_publish_determines_every_cell(self, case):
        table, partition = case
        fast = GeneralizedTable.from_partition(table, partition)
        if not len(table):
            return
        published = fast.columnar_publish()
        assert published is not None
        rep_codes, rep_star, group_of, sa_codes = published
        groups = len(partition.groups)
        assert rep_codes.shape == (groups, table.dimension)
        assert rep_star.shape == (groups, table.dimension)
        assert group_of.shape == (len(table),) and sa_codes.shape == (len(table),)
        for row in range(len(table)):
            group = int(group_of[row])
            for position in range(table.dimension):
                expected = fast.cell(row, position)
                if rep_star[group, position]:
                    assert expected is STAR
                else:
                    assert expected == int(rep_codes[group, position])
            assert fast.sa_value(row) == int(sa_codes[row])

    def test_reference_output_has_no_columnar_form(self, hospital):
        partition = Partition.by_qi(hospital)
        oracle = GeneralizedTable.from_partition_reference(hospital, partition)
        assert oracle.columnar_publish() is None
