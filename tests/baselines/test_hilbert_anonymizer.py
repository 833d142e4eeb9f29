"""Tests for the Hilbert suppression baseline and the TP+ refiner."""

from __future__ import annotations

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import hilbert
from repro.baselines.hilbert.curve import WORD_BITS
from repro.core.eligibility import is_l_eligible
from repro.dataset.table import Attribute, Schema, Table
from repro.errors import IneligibleTableError
from tests.conftest import make_random_table
from tests.group_oracles import hilbert_order_reference


@functools.lru_cache(maxsize=None)
def _attribute(position: int, bits: int) -> Attribute:
    return Attribute(f"Q{position}", tuple(range(1 << bits)))


@st.composite
def wide_key_tables(draw) -> Table:
    """Tables whose Hilbert keys take 63-128 bits (two or three int64 words).

    Rows repeat a few drawn QI vectors, so ties on the key are common.
    """
    d = draw(st.integers(min_value=5, max_value=8))
    bits = draw(st.integers(min_value=-(-63 // d), max_value=min(16, 128 // d)))
    assert WORD_BITS < bits * d <= 128
    coordinate = st.integers(min_value=0, max_value=(1 << bits) - 1)
    pool = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=12))
    schema = Schema(
        qi=tuple(_attribute(position, bits) for position in range(d)),
        sensitive=Attribute("S", (0, 1)),
    )
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), d)
    return Table.from_arrays(schema, columns, np.zeros(len(rows), dtype=np.int64))


class TestHilbertOrder:
    def test_orders_all_rows(self, hospital):
        order = hilbert.hilbert_order(hospital)
        assert sorted(order) == list(range(len(hospital)))

    def test_subset_of_rows(self, hospital):
        order = hilbert.hilbert_order(hospital, rows=[3, 1, 5])
        assert sorted(order) == [1, 3, 5]

    def test_identical_qi_rows_stay_adjacent(self, hospital):
        order = hilbert.hilbert_order(hospital)
        positions = {row: position for position, row in enumerate(order)}
        # Adam and Bob share the exact QI vector, so they must be adjacent.
        assert abs(positions[0] - positions[1]) == 1

    def test_deterministic(self, random_table):
        assert hilbert.hilbert_order(random_table) == hilbert.hilbert_order(random_table)

    @given(table=wide_key_tables(), data=st.data())
    @settings(deadline=None)
    def test_wide_keys_match_scalar_oracle(self, table, data):
        assert hilbert.hilbert_order(table) == hilbert_order_reference(table)
        shuffled = data.draw(st.permutations(range(len(table))))
        rows = shuffled[: data.draw(st.integers(min_value=0, max_value=len(table)))]
        assert hilbert.hilbert_order(table, rows) == hilbert_order_reference(table, rows)


class TestPartitionRows:
    def test_partitions_into_eligible_groups(self, random_table):
        groups = hilbert.partition_rows(random_table, list(range(len(random_table))), 2)
        covered = sorted(row for group in groups for row in group)
        assert covered == list(range(len(random_table)))
        for group in groups:
            counts = Counter(random_table.sa_value(row) for row in group)
            assert is_l_eligible(counts, 2)

    def test_rejects_ineligible_rows(self, hospital):
        hiv_rows = [row for row in range(len(hospital)) if hospital.sa_value(row) == hospital.schema.sensitive.encode("HIV")]
        with pytest.raises(IneligibleTableError):
            hilbert.partition_rows(hospital, hiv_rows, 2)

    def test_empty_rows(self, hospital):
        assert hilbert.partition_rows(hospital, [], 2) == []

    def test_refiner_is_partition_rows(self, random_table):
        rows = list(range(len(random_table)))
        assert hilbert.hilbert_refiner(random_table, rows, 2) == hilbert.partition_rows(
            random_table, rows, 2
        )

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=2, max_value=6),
        l=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=200),
    )
    def test_property_valid_partitions(self, n, m, l, seed):
        table = make_random_table(n, d=3, qi_domain=4, m=m, seed=seed)
        if not table.is_l_eligible(l):
            return
        groups = hilbert.partition_rows(table, list(range(n)), l)
        assert sorted(row for group in groups for row in group) == list(range(n))
        for group in groups:
            counts = Counter(table.sa_value(row) for row in group)
            assert is_l_eligible(counts, l)


class TestHilbertAnonymize:
    def test_output_is_l_diverse(self, hospital):
        result = hilbert.anonymize(hospital, 2)
        assert result.generalized.is_l_diverse(2)
        assert result.star_count == result.generalized.star_count()
        assert result.suppressed_tuple_count == result.generalized.suppressed_tuple_count()

    def test_rejects_invalid_l(self, hospital):
        with pytest.raises(ValueError):
            hilbert.anonymize(hospital, 1)
        with pytest.raises(IneligibleTableError):
            hilbert.anonymize(hospital, 3)

    def test_group_sizes_close_to_l(self, small_census):
        projected = small_census.project(small_census.schema.qi_names[:3])
        result = hilbert.anonymize(projected, 4)
        sizes = [len(rows) for rows in result.generalized.groups().values()]
        assert min(sizes) >= 4
        # Greedy closing keeps groups small: the median group is close to l.
        assert sorted(sizes)[len(sizes) // 2] <= 12

    def test_census_output_diverse(self, small_census):
        projected = small_census.project(small_census.schema.qi_names[:4])
        result = hilbert.anonymize(projected, 6)
        assert result.generalized.is_l_diverse(6)
