"""Equivalence of the vectorized NumPy data plane and the pure-Python oracles.

Every vectorized hot path — columnar construction, QI-grouping, suppression
(Definition 1), star/NCP/discernibility/KL metrics and Hilbert keys — is
validated against its pure-Python ``*_reference`` oracle in
``tests/group_oracles.py`` or ``tests/metric_oracles.py`` on random tables.
The three-phase algorithm, which runs on the table's run encoding
and shaves, covers and seeds in bulk, is validated against the per-tuple
oracle of ``tests/tp_oracle.py``, whose published partition goes through the
reference suppression.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hilbert.anonymizer import hilbert_order
from repro.baselines.hilbert.curve import hilbert_index, hilbert_indices_vectorized
from repro.core import three_phase
from repro.core.state import AlgorithmState
from repro.dataset.examples import phase_three_example
from repro.dataset.generalized import STAR, GeneralizedTable, Partition
from repro.dataset.table import Attribute, DomainError, Schema, Table
from repro.metrics.kl import kl_divergence
from repro.metrics.loss import discernibility, ncp
from repro.metrics.stars import star_count_by_attribute
from tests.conftest import make_random_table
from tests.group_oracles import (
    from_partition_reference,
    group_by_qi_reference,
    hilbert_order_reference,
)
from tests.metric_oracles import (
    discernibility_reference,
    kl_divergence_reference,
    ncp_reference,
    star_count_by_attribute_reference,
    star_count_reference,
    suppressed_tuple_count_reference,
)
from tests.strategies import small_tables, tables_with_partitions
from tests.tp_oracle import initial_groups, run_tp


def _single_attribute_schema() -> Schema:
    return Schema(qi=(Attribute("Q", (0, 1)),), sensitive=Attribute("S", (0, 1)))


class TestColumnarTable:
    def test_from_arrays_round_trip(self):
        schema = Schema(
            qi=(Attribute("A", (0, 1, 2)), Attribute("B", (0, 1))),
            sensitive=Attribute("S", (0, 1, 2, 3)),
        )
        columns = np.array([[0, 1], [2, 0], [1, 1]], dtype=np.int64)
        sa = np.array([3, 0, 2], dtype=np.int64)
        table = Table.from_arrays(schema, columns, sa)
        reference = Table(schema, [(0, 1), (2, 0), (1, 1)], [3, 0, 2])
        assert table.qi_rows == reference.qi_rows
        assert table.sa_values == reference.sa_values
        assert np.array_equal(table.qi_columns, reference.qi_columns)
        assert np.array_equal(table.sa_array, reference.sa_array)

    def test_from_arrays_validates_bounds(self):
        schema = _single_attribute_schema()
        with pytest.raises(DomainError):
            Table.from_arrays(schema, np.array([[5]]), np.array([0]))
        with pytest.raises(DomainError):
            Table.from_arrays(schema, np.array([[0]]), np.array([-1]))

    def test_bounds_are_checked_before_the_int32_cast(self):
        # 2**32 + 1 wraps to code 1 under an int32 cast; it must be rejected.
        schema = _single_attribute_schema()
        with pytest.raises(DomainError):
            Table.from_arrays(schema, np.array([[2**32 + 1]]), np.array([0]))
        with pytest.raises(DomainError):
            Table.from_arrays(schema, np.array([[0]]), np.array([2**32]))
        with pytest.raises(DomainError):
            Table(schema, [(2**32 + 1,)], [0])
        with pytest.raises(DomainError):
            Table(schema, [(0,)], [2**64 + 1])

    def test_from_arrays_validates_shape(self):
        schema = _single_attribute_schema()
        with pytest.raises(ValueError):
            Table.from_arrays(schema, np.array([[0, 0]]), np.array([0]))
        with pytest.raises(ValueError):
            Table.from_arrays(schema, np.array([[0]]), np.array([0, 1]))

    def test_row_tuples_are_python_ints(self):
        schema = _single_attribute_schema()
        table = Table.from_arrays(schema, np.array([[1]]), np.array([0]))
        assert type(table.qi_row(0)[0]) is int
        assert type(table.sa_value(0)) is int

    def test_group_by_qi_is_cached(self):
        table = Table(_single_attribute_schema(), [(0,), (1,), (0,)], [0, 1, 1])
        assert table.group_by_qi() is table.group_by_qi()

    def test_pickle_round_trip(self):
        import pickle

        table = Table(_single_attribute_schema(), [(0,), (1,), (0,)], [0, 1, 1])
        clone = pickle.loads(pickle.dumps(table))
        assert clone.qi_rows == table.qi_rows
        assert clone.sa_values == table.sa_values
        assert clone.schema.qi_names == table.schema.qi_names

    @given(table=small_tables(max_rows=12, max_dimension=4))
    def test_group_by_qi_matches_reference(self, table):
        vectorized = table.group_by_qi()
        reference = group_by_qi_reference(table)
        assert vectorized == reference  # same keys AND same ascending row lists

    def test_group_by_qi_empty_table(self):
        table = Table(_single_attribute_schema(), [], [])
        assert table.group_by_qi() == {}
        assert table.distinct_qi_count == 0

    @given(table=small_tables(max_rows=10, max_dimension=1))
    def test_group_by_qi_matches_reference_d1(self, table):
        assert table.group_by_qi() == group_by_qi_reference(table)


class TestGeneralizationEquivalence:
    @given(data=tables_with_partitions(max_rows=10, max_dimension=3))
    def test_from_partition_matches_reference(self, data):
        table, partition = data
        vectorized = GeneralizedTable.from_partition(table, partition)
        reference = from_partition_reference(table, partition)
        assert vectorized.cell_rows == reference.cell_rows
        assert vectorized.group_ids == reference.group_ids
        assert vectorized.sa_values == reference.sa_values
        assert vectorized.star_count() == star_count_reference(reference)
        assert (
            vectorized.suppressed_tuple_count()
            == suppressed_tuple_count_reference(reference)
        )

    @given(data=tables_with_partitions(max_rows=10, max_dimension=3))
    def test_star_metrics_match_reference(self, data):
        table, partition = data
        generalized = GeneralizedTable.from_partition(table, partition)
        assert star_count_by_attribute(generalized) == star_count_by_attribute_reference(
            generalized
        )
        assert discernibility(generalized) == discernibility_reference(generalized)
        assert math.isclose(
            ncp(generalized), ncp_reference(generalized), rel_tol=1e-9, abs_tol=1e-12
        )

    @given(data=tables_with_partitions(max_rows=9, max_dimension=2, max_sensitive=3))
    @settings(deadline=None)
    def test_kl_matches_reference(self, data):
        table, partition = data
        generalized = GeneralizedTable.from_partition(table, partition)
        fast = kl_divergence(table, generalized)
        slow = kl_divergence_reference(table, generalized)
        assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-9)

    def test_single_group_partition(self, hospital):
        partition = Partition.single_group(len(hospital))
        vectorized = GeneralizedTable.from_partition(hospital, partition)
        reference = from_partition_reference(hospital, partition)
        assert vectorized.cell_rows == reference.cell_rows
        assert vectorized.star_count() == star_count_reference(reference)

    def test_zero_star_partition_by_qi(self, hospital):
        """Empty residue / untouched groups: no stars on either path."""
        partition = Partition.by_qi(hospital)
        vectorized = GeneralizedTable.from_partition(hospital, partition)
        assert vectorized.star_count() == 0
        assert vectorized.suppressed_tuple_count() == 0
        reference = from_partition_reference(hospital, partition)
        assert vectorized.cell_rows == reference.cell_rows

    def test_groups_cached(self, hospital):
        generalized = GeneralizedTable.from_partition(
            hospital, Partition.single_group(len(hospital))
        )
        assert generalized.groups() is generalized.groups()

    def test_star_mask_matches_cells(self, hospital):
        partition = Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        generalized = GeneralizedTable.from_partition(hospital, partition)
        mask = generalized.star_mask()
        for row in range(len(generalized)):
            for position in range(generalized.dimension):
                assert mask[row, position] == (
                    generalized.cell(row, position) is STAR
                )


class TestTrustedPartitionGuards:
    def test_hybrid_filters_empty_refiner_groups(self, hospital):
        from repro.baselines.hilbert import hilbert_refiner
        from repro.core import hybrid

        def sloppy_refiner(table, rows, l):
            return hilbert_refiner(table, rows, l) + [[]]

        result = hybrid.anonymize(hospital, 2, refiner=sloppy_refiner)
        assert all(len(group) > 0 for group in result.partition.groups)
        assert result.generalized.is_l_diverse(2)


class TestHilbertEquivalence:
    @given(
        d=st.integers(min_value=1, max_value=5),
        bits=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_vectorized_indices_match_scalar(self, d, bits, data):
        n = data.draw(st.integers(min_value=0, max_value=20))
        points = data.draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=(1 << bits) - 1)] * d),
                min_size=n,
                max_size=n,
            )
        )
        array = np.array(points, dtype=np.int64).reshape(n, d)
        vectorized = hilbert_indices_vectorized(array, bits)
        assert vectorized.tolist() == [hilbert_index(point, bits) for point in points]

    @given(table=small_tables(max_rows=12, max_dimension=4))
    def test_order_matches_reference(self, table):
        assert hilbert_order(table) == hilbert_order_reference(table)

    @given(table=small_tables(max_rows=12, max_dimension=3))
    def test_order_on_subset_matches_reference(self, table):
        rows = list(range(0, len(table), 2))
        assert hilbert_order(table, rows) == hilbert_order_reference(table, rows)


def _assert_matches_oracle(table: Table, l: int) -> int:
    """TP on the run encoding equals the per-tuple oracle; returns the phase.

    Residue rows, every per-phase stat (phase reached, moves, iterations,
    rounds) and the published cells, the oracle's through the reference
    suppression.
    """
    result = three_phase.anonymize(table, l)
    oracle = run_tp(table, l)
    assert result.residue_rows == oracle.residue_rows()
    assert result.stats == oracle.stats
    expected = from_partition_reference(
        table, Partition(oracle.partition_groups(), len(table))
    )
    assert result.generalized.cell_rows == expected.cell_rows
    assert result.star_count == star_count_reference(expected)
    return result.stats.phase_reached


class TestAlgorithmStateEquivalence:
    @given(table=small_tables(max_rows=12, max_dimension=3))
    def test_state_groups_match_per_tuple_oracle(self, table):
        if not table.is_l_eligible(2):
            return
        state = AlgorithmState(table, 2)
        groups = initial_groups(table)
        assert state.group_count == len(groups)
        keys = sorted(set(table.qi_rows))
        for group_id, expected in enumerate(groups):
            assert state.group_qi_vector(group_id) == keys[group_id]
            assert state.group_size(group_id) == expected.size
            assert state.group_pillars_view(group_id) == expected.pillars()
            assert state.group(group_id).counts() == expected.counts()
            assert sorted(state.group(group_id).rows()) == sorted(expected.rows())
            assert state.group(group_id).pillars() == expected.pillars()
            assert state.group(group_id).height == expected.height

    @given(table=small_tables(max_rows=12, max_dimension=3), l=st.integers(2, 4))
    @settings(deadline=None)
    def test_three_phase_matches_per_tuple_oracle(self, table, l):
        if not table.is_l_eligible(l):
            return
        _assert_matches_oracle(table, l)

    def test_phase_two_example_matches_oracle(self, phase2_table):
        assert _assert_matches_oracle(phase2_table, 3) == 2

    def test_phase_three_example_matches_oracle(self):
        assert _assert_matches_oracle(phase_three_example(), 4) == 3

    def test_seeded_sweep_reaches_every_phase(self):
        reached = set()
        for seed in range(100):
            for l in (2, 3, 4):
                n = 12 + seed % 24
                table = make_random_table(n, d=2, qi_domain=2, m=l + 1, seed=seed)
                if table.is_l_eligible(l):
                    reached.add(_assert_matches_oracle(table, l))
        assert reached == {1, 2, 3}
