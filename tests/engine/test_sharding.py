"""Tests for QI-prefix sharding and shard-output merging."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine.registry import algorithm_registry
from repro.engine.sharding import (
    merge_shard_outputs,
    qi_prefix_shards,
    suppression_merge_bound,
)
from repro.errors import IneligibleTableError, ShardMergeError
from tests.strategies import eligible_tables


def _run_shards(table, shard_rows, l, algorithm="TP"):
    runner = algorithm_registry.get(algorithm).runner
    return [runner(table.subset(rows), l) for rows in shard_rows]


class TestQiPrefixShards:
    @given(table=eligible_tables(l=2), shard_count=st.integers(min_value=1, max_value=5))
    @settings(deadline=None, max_examples=60)
    def test_shards_partition_the_rows(self, table, shard_count):
        assume(table.is_l_eligible(2))
        shards = qi_prefix_shards(table, shard_count, 2)
        flattened = [index for shard in shards for index in shard]
        assert sorted(flattened) == list(range(len(table)))
        assert len(flattened) == len(set(flattened))

    @given(table=eligible_tables(l=2), shard_count=st.integers(min_value=2, max_value=5))
    @settings(deadline=None, max_examples=60)
    def test_shards_are_unions_of_complete_qi_groups(self, table, shard_count):
        assume(table.is_l_eligible(2))
        shards = qi_prefix_shards(table, shard_count, 2)
        shard_of = {index: i for i, shard in enumerate(shards) for index in shard}
        for rows in table.group_by_qi().values():
            assert len({shard_of[index] for index in rows}) == 1

    @given(table=eligible_tables(l=2), shard_count=st.integers(min_value=2, max_value=5))
    @settings(deadline=None, max_examples=60)
    def test_every_shard_is_l_eligible(self, table, shard_count):
        assume(table.is_l_eligible(2))
        for shard in qi_prefix_shards(table, shard_count, 2):
            counts = Counter(table.sa_value(index) for index in shard)
            assert max(counts.values()) * 2 <= len(shard)

    def test_single_shard_is_identity(self, hospital):
        assert qi_prefix_shards(hospital, 1, 2) == [list(range(len(hospital)))]

    def test_empty_table_yields_no_shards(self, hospital):
        assert qi_prefix_shards(hospital.subset([]), 3, 2) == []

    def test_ineligible_table_raises(self, hospital):
        with pytest.raises(IneligibleTableError):
            qi_prefix_shards(hospital, 2, len(hospital) + 1)

    def test_invalid_shard_count_raises(self, hospital):
        with pytest.raises(ValueError):
            qi_prefix_shards(hospital, 0, 2)

    def test_balanced_on_synthetic_table(self):
        table = make_sal(4000, seed=7, config=CensusConfig.scaled(0.3))
        shards = qi_prefix_shards(table, 4, 4)
        assert len(shards) == 4
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 0.2 * (len(table) / 4)


class TestMergeShardOutputs:
    @given(table=eligible_tables(l=2, max_rows=12), shard_count=st.integers(min_value=2, max_value=4))
    @settings(deadline=None, max_examples=40)
    def test_merge_preserves_l_diversity(self, table, shard_count):
        assume(table.is_l_eligible(2))
        l = 2
        shard_rows = qi_prefix_shards(table, shard_count, l)
        outputs = _run_shards(table, shard_rows, l)
        merged = merge_shard_outputs(table, shard_rows, outputs, l)
        assert merged.is_l_diverse(l)
        assert len(merged) == len(table)

    def test_merge_keeps_original_row_order(self, hospital):
        l = 2
        shard_rows = qi_prefix_shards(hospital, 2, l)
        outputs = _run_shards(hospital, shard_rows, l)
        merged = merge_shard_outputs(hospital, shard_rows, outputs, l)
        assert merged.sa_values == hospital.sa_values

    @pytest.mark.parametrize("algorithm", ["TP", "Mondrian"])
    def test_merge_keeps_every_shard_row(self, algorithm):
        table = make_sal(600, seed=7, config=CensusConfig.scaled(0.3)).project(
            ("Age", "Gender", "Race")
        )
        shard_rows = qi_prefix_shards(table, 3, 2)
        assert len(shard_rows) == 3
        outputs = _run_shards(table, shard_rows, 2, algorithm)
        merged = merge_shard_outputs(table, shard_rows, outputs, 2)
        assert (merged.columnar_publish() is not None) == (algorithm == "TP")
        for rows, output in zip(shard_rows, outputs):
            for local, global_index in enumerate(rows):
                assert merged.row_cells(global_index) == output.generalized.row_cells(local)

    def test_merge_offsets_group_ids(self, hospital):
        l = 2
        shard_rows = qi_prefix_shards(hospital, 2, l)
        outputs = _run_shards(hospital, shard_rows, l)
        merged = merge_shard_outputs(hospital, shard_rows, outputs, l)
        assert len(merged.groups()) == sum(
            len(output.generalized.groups()) for output in outputs
        )

    def test_mismatched_lengths_raise(self, hospital):
        with pytest.raises(ValueError):
            merge_shard_outputs(hospital, [[0]], [], 2)

    def test_uncovered_rows_raise(self, hospital):
        l = 2
        shard_rows = qi_prefix_shards(hospital, 2, l)
        outputs = _run_shards(hospital, shard_rows, l)
        with pytest.raises(ShardMergeError):
            merge_shard_outputs(hospital, [shard_rows[0], shard_rows[0]], outputs, l)

    def test_suppression_within_documented_bound(self):
        table = make_sal(4000, seed=7, config=CensusConfig.scaled(0.3)).project(
            ("Age", "Gender", "Race", "Education")
        )
        l, shard_count = 4, 4
        runner = algorithm_registry.get("TP").runner
        unsharded = runner(table, l).generalized
        shard_rows = qi_prefix_shards(table, shard_count, l)
        outputs = _run_shards(table, shard_rows, l)
        merged = merge_shard_outputs(table, shard_rows, outputs, l)
        stars_bound = suppression_merge_bound(shard_count, l, table.dimension)
        tuples_bound = suppression_merge_bound(shard_count, l)
        assert abs(merged.star_count() - unsharded.star_count()) <= stars_bound
        assert (
            abs(merged.suppressed_tuple_count() - unsharded.suppressed_tuple_count())
            <= tuples_bound
        )
