"""Property tests: the shared GroupingContext against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.grouping import GroupingContext, sort_qi_sa
from repro.dataset.table import Attribute, Schema, Table
from tests.group_oracles import group_by_qi_reference, grouping_context_reference
from tests.strategies import small_tables


def _build(table: Table) -> GroupingContext:
    return GroupingContext.build(
        table.qi_columns,
        table.sa_array,
        [attribute.size for attribute in table.schema.qi],
        table.schema.sensitive.size,
    )


def _brute_force_arrays(table: Table):
    """The historical run-encoding contract, spelled out row by row."""
    n = len(table)
    order = sorted(range(n), key=lambda row: (table.qi_row(row), table.sa_value(row)))
    keyed = [(table.qi_row(row), table.sa_value(row)) for row in order]
    run_bounds = [0] + [
        index for index in range(1, n) if keyed[index] != keyed[index - 1]
    ] + [n]
    if n == 0:
        run_bounds = [0]
    run_values = [keyed[start][1] for start in run_bounds[:-1]]
    group_keys = []
    group_run_bounds = []
    for run_index, start in enumerate(run_bounds[:-1]):
        qi = keyed[start][0]
        if not group_keys or group_keys[-1] != qi:
            group_keys.append(qi)
            group_run_bounds.append(run_index)
    group_run_bounds.append(len(run_values))
    if n == 0:
        group_run_bounds = [0]
    return group_keys, group_run_bounds, run_bounds, run_values, order


class TestGroupingContextOracle:
    @given(table=small_tables(max_rows=12, max_dimension=3, max_sensitive=4))
    @settings(deadline=None)
    def test_matches_brute_force_encoding(self, table):
        context = _build(table)
        keys, group_bounds, run_bounds, run_values, order = _brute_force_arrays(table)
        got_keys, got_group_bounds, got_run_bounds, got_run_values, got_order = (
            context.arrays()
        )
        assert [tuple(row) for row in got_keys.tolist()] == keys
        assert got_group_bounds.tolist() == group_bounds
        assert got_run_bounds.tolist() == run_bounds
        assert got_run_values.tolist() == run_values
        assert got_order.tolist() == order

    @given(table=small_tables(max_rows=12, max_dimension=3, max_sensitive=4))
    @settings(deadline=None)
    def test_group_by_qi_matches_table_reference(self, table):
        context = _build(table)
        assert context.group_by_qi() == group_by_qi_reference(table)

    @given(table=small_tables(max_rows=12, max_dimension=3, max_sensitive=4))
    @settings(deadline=None)
    def test_derived_views_are_consistent(self, table):
        context = _build(table)
        keys, group_bounds, run_bounds, run_values, order = context.arrays()
        assert context.n == len(table)
        assert context.group_count == len(keys)
        assert context.run_count == len(run_values)
        assert context.run_lengths.tolist() == np.diff(run_bounds).tolist()
        assert context.group_row_bounds.tolist() == run_bounds[group_bounds].tolist()
        expected_gids = [
            group_id
            for group_id in range(len(keys))
            for _ in range(group_bounds[group_id + 1] - group_bounds[group_id])
        ]
        assert context.run_group_ids.tolist() == expected_gids
        sizes, heights = context.group_sizes_heights()
        run_lengths = context.run_lengths
        for group_id in range(len(keys)):
            runs = run_lengths[group_bounds[group_id] : group_bounds[group_id + 1]]
            assert sizes[group_id] == runs.sum()
            assert heights[group_id] == runs.max()

    def test_empty_table(self):
        schema = Schema(
            qi=(Attribute("Q0", (0, 1)),), sensitive=Attribute("S", (0, 1))
        )
        table = Table(schema, [], [])
        context = _build(table)
        assert context.n == 0
        assert context.group_count == 0
        assert context.run_count == 0
        assert context.group_by_qi() == {}

    def test_explicit_order_skips_the_sort(self, monkeypatch):
        table = Table(
            Schema(qi=(Attribute("Q0", (0, 1, 2)),), sensitive=Attribute("S", (0, 1))),
            [(2,), (0,), (1,), (0,)],
            [1, 0, 1, 0],
        )
        expected = _build(table)
        order = expected.order.copy()

        def boom(*args, **kwargs):  # pragma: no cover - the assertion below
            raise AssertionError("sort ran despite a precomputed order")

        monkeypatch.setattr("repro.core.grouping.sort_qi_sa", boom)
        context = GroupingContext.build(
            table.qi_columns,
            table.sa_array,
            [attribute.size for attribute in table.schema.qi],
            table.schema.sensitive.size,
            order=order,
        )
        for fast, slow in zip(context.arrays(), expected.arrays()):
            assert np.array_equal(fast, slow)


class TestSortQiSa:
    @given(table=small_tables(max_rows=12, max_dimension=3, max_sensitive=4))
    @settings(deadline=None)
    def test_matches_lexsort(self, table):
        order = sort_qi_sa(
            table.qi_columns,
            table.sa_array,
            [attribute.size for attribute in table.schema.qi],
            table.schema.sensitive.size,
        )
        expected = np.lexsort(
            (table.sa_array, *reversed(table.qi_columns.T))
        )
        assert order.tolist() == expected.tolist()

    def test_huge_domains_fall_back_to_lexsort(self):
        qi = np.asarray([[1], [0], [1], [0]], dtype=np.int64)
        sa = np.asarray([0, 1, 1, 0], dtype=np.int64)
        # A fake domain so large the composite key cannot fit 62 bits.
        order = sort_qi_sa(qi, sa, [1 << 40], 1 << 40)
        assert order.tolist() == [3, 1, 0, 2]


class TestTableGroupingCache:
    def test_grouping_is_computed_once(self):
        table = Table(
            Schema(qi=(Attribute("Q0", (0, 1)),), sensitive=Attribute("S", (0, 1))),
            [(1,), (0,)],
            [0, 1],
        )
        first = table.grouping()
        assert table.grouping() is first

    def test_attach_order_cache_feeds_and_learns(self):
        table = Table(
            Schema(qi=(Attribute("Q0", (0, 1, 2)),), sensitive=Attribute("S", (0, 1))),
            [(2,), (0,), (1,)],
            [1, 0, 1],
        )
        stored: dict[str, np.ndarray] = {}

        class RecordingCache:
            def load(self, table):
                return stored.get("order")

            def store(self, table, order):
                stored["order"] = np.asarray(order)

        table.attach_order_cache(RecordingCache())
        context = table.grouping()
        assert np.array_equal(stored["order"], context.order)

        # A second table served from the same cache skips the sort entirely.
        warm = Table(table.schema, table.qi_rows, table.sa_values)
        warm.attach_order_cache(RecordingCache())
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(
                "repro.core.grouping.sort_qi_sa",
                lambda *a, **k: (_ for _ in ()).throw(AssertionError("sorted")),
            )
            warm_context = warm.grouping()
        assert np.array_equal(warm_context.order, context.order)


def _assert_contexts_identical(fast: GroupingContext, oracle: GroupingContext):
    assert fast.order.tolist() == oracle.order.tolist()
    assert fast.group_keys.tolist() == oracle.group_keys.tolist()
    assert fast.group_run_bounds.tolist() == oracle.group_run_bounds.tolist()
    assert fast.run_bounds.tolist() == oracle.run_bounds.tolist()
    assert fast.run_values.tolist() == oracle.run_values.tolist()


class TestBuildAgainstReference:
    """The key-derived boundary scan against the serial wide-scan oracle."""

    @given(table=small_tables(max_rows=14, max_dimension=3, max_sensitive=4))
    @settings(deadline=None)
    def test_key_scan_is_bit_identical(self, table):
        args = (
            table.qi_columns,
            table.sa_array,
            [attribute.size for attribute in table.schema.qi],
            table.schema.sensitive.size,
        )
        _assert_contexts_identical(
            GroupingContext.build(*args), grouping_context_reference(*args)
        )

    @given(table=small_tables(max_rows=12, max_dimension=2, max_sensitive=3))
    @settings(deadline=None, max_examples=25)
    def test_warm_start_order_skips_sort_and_matches(self, table):
        args = (
            table.qi_columns,
            table.sa_array,
            [attribute.size for attribute in table.schema.qi],
            table.schema.sensitive.size,
        )
        oracle = grouping_context_reference(*args)
        warm = GroupingContext.build(*args, order=oracle.order)
        _assert_contexts_identical(warm, oracle)

    def test_empty_table_both_paths(self):
        columns = np.zeros((0, 2), dtype=np.int64)
        sa = np.zeros(0, dtype=np.int64)
        fast = GroupingContext.build(columns, sa, [3, 3], 2)
        oracle = grouping_context_reference(columns, sa, [3, 3], 2)
        _assert_contexts_identical(fast, oracle)
        assert fast.n == 0 and fast.group_count == 0 and fast.run_count == 0

    def test_single_row(self):
        columns = np.asarray([[1, 2]], dtype=np.int64)
        sa = np.asarray([1], dtype=np.int64)
        fast = GroupingContext.build(columns, sa, [3, 3], 2)
        oracle = grouping_context_reference(columns, sa, [3, 3], 2)
        _assert_contexts_identical(fast, oracle)
        assert fast.group_count == 1 and fast.run_count == 1
