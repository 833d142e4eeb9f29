"""Tests for the KL-divergence utility metric (Equation 2)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.table import Attribute, Schema, Table
from repro.metrics import kl
from repro.metrics.kl import kl_divergence
from tests.conftest import make_random_table, merged_with_empty_groups
from tests.metric_oracles import kl_divergence_reference


class TestExactCases:
    def test_identity_generalization_has_zero_divergence(self, hospital):
        generalized = GeneralizedTable.from_partition(hospital, Partition.by_qi(hospital))
        assert kl_divergence(hospital, generalized) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_single_attribute(self):
        """Two rows, one QI attribute with two values, both suppressed.

        f places 1/2 on each of the two observed points; f* spreads each
        suppressed row uniformly over both domain values, giving 1/2 on each
        point as well — except that the SA values differ, so each point's
        mass comes only from its own row: f*(p) = 1/2 * 1/2 = 1/4, hence
        KL = 2 * (1/2) * ln((1/2)/(1/4)) = ln 2.
        """
        table = make_random_table(2, d=1, qi_domain=2, m=2, seed=0)
        # Force the exact layout described above.
        from repro.dataset.table import Table

        table = Table(table.schema, [(0,), (1,)], [0, 1])
        generalized = GeneralizedTable.from_partition(table, Partition.single_group(2))
        assert kl_divergence(table, generalized) == pytest.approx(math.log(2))

    def test_mismatched_lengths_rejected(self, hospital):
        generalized = GeneralizedTable.from_partition(hospital, Partition.by_qi(hospital))
        with pytest.raises(ValueError):
            kl_divergence(hospital.subset([0, 1]), generalized)

    def test_empty_table(self):
        table = make_random_table(1, d=1, qi_domain=2, m=2, seed=0).subset([])
        generalized = GeneralizedTable(table.schema, [], [], [])
        assert kl_divergence(table, generalized) == 0.0


class TestOrderingProperties:
    def test_full_suppression_is_worse_than_partial(self, hospital):
        fine = GeneralizedTable.from_partition(
            hospital, Partition([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]], 10)
        )
        coarse = GeneralizedTable.from_partition(hospital, Partition.single_group(10))
        assert kl_divergence(hospital, coarse) > kl_divergence(hospital, fine)

    def test_subdomains_are_better_than_stars(self, hospital):
        """Replacing a star with a covering sub-domain can only help (Section 6.2)."""
        partition = Partition.single_group(10)
        stars = GeneralizedTable.from_partition(hospital, partition)
        cells = []
        for row in range(len(hospital)):
            qi = hospital.qi_row(row)
            cells.append(
                (
                    frozenset({hospital.qi_row(other)[0] for other in range(10)}),
                    frozenset({hospital.qi_row(other)[1] for other in range(10)}),
                    frozenset({hospital.qi_row(other)[2] for other in range(10)}),
                )
            )
            del qi
        subdomains = GeneralizedTable(
            hospital.schema, cells, hospital.sa_values, [0] * len(hospital)
        )
        assert kl_divergence(hospital, subdomains) <= kl_divergence(hospital, stars) + 1e-9

    def test_non_negative(self, random_table):
        generalized = GeneralizedTable.from_partition(
            random_table, Partition.single_group(len(random_table))
        )
        assert kl_divergence(random_table, generalized) >= 0.0

    @settings(deadline=None, max_examples=30)
    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=100),
        groups=st.integers(min_value=1, max_value=4),
    )
    def test_property_non_negative_and_finite(self, n, seed, groups):
        table = make_random_table(n, d=2, qi_domain=3, m=3, seed=seed)
        blocks = [[] for _ in range(min(groups, n))]
        for row in range(n):
            blocks[row % len(blocks)].append(row)
        generalized = GeneralizedTable.from_partition(table, Partition(blocks, n))
        value = kl_divergence(table, generalized)
        assert value >= 0.0
        assert math.isfinite(value)


def _blocks_by(table: Table, positions: tuple[int, ...], rows: range) -> list[list[int]]:
    """Rows grouped by their codes at ``positions`` (first-appearance order)."""
    blocks: dict[tuple[int, ...], list[int]] = {}
    for row in rows:
        qi = table.qi_row(row)
        blocks.setdefault(tuple(qi[p] for p in positions), []).append(row)
    return list(blocks.values())


class TestEvaluationPaths:
    """Each evaluation path of the mixture ``f*``, taken by a group-form
    table and by the explicit-cells rebuild of the same table: the two are
    bit-equal, close to the oracle, and the group form never builds its
    per-row cell tuples."""

    PATHS = ("_dense_fstar", "_sparse_fstar", "_membership_fstar")

    def _paths(self, table, generalized, monkeypatch) -> list[str]:
        calls: list[str] = []
        for name in self.PATHS:
            original = getattr(kl, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(kl, name, spy)
        assert generalized.columnar_publish() is not None
        value = kl_divergence(table, generalized)
        assert generalized._cells_rows is None
        taken = sorted(set(calls))

        rows = GeneralizedTable(
            generalized.schema,
            generalized.cell_rows,
            generalized.sa_values,
            generalized.group_ids,
        )
        assert rows.columnar_publish() is None
        calls.clear()
        assert kl_divergence(table, rows) == value  # bit-equal
        assert sorted(set(calls)) == taken
        assert math.isclose(
            value, kl_divergence_reference(table, generalized), rel_tol=1e-9, abs_tol=1e-9
        )
        return taken

    def test_dense_accumulation(self, monkeypatch):
        table = make_random_table(120, d=3, qi_domain=4, m=4, seed=5)
        blocks = _blocks_by(table, (0,), range(60)) + _blocks_by(table, (0, 1), range(60, 120))
        generalized = GeneralizedTable.from_partition(table, Partition(blocks, len(table)))
        assert self._paths(table, generalized, monkeypatch) == ["_dense_fstar"]

    @pytest.mark.parametrize("l", [2, 4])
    @pytest.mark.parametrize("algorithm", ["TP", "TP+"])
    def test_dense_and_sparse_agree_bit_for_bit(
        self, small_census, algorithm, l, monkeypatch
    ):
        """Both evaluations sum the same terms per point in the same mask
        order, so their per-point mixtures are equal to the last bit."""
        from repro.engine.registry import algorithm_registry

        compared: list[bool] = []
        dense_fstar = kl._dense_fstar

        def both(*args):
            dense = dense_fstar(*args)
            compared.append(np.array_equal(dense, kl._sparse_fstar(*args)))
            return dense

        monkeypatch.setattr(kl, "_dense_fstar", both)
        generalized = algorithm_registry.get(algorithm).runner(small_census, l).generalized
        kl_divergence(small_census, generalized)
        assert compared == [True]

    def test_sparse_join_past_the_dense_bound(self, monkeypatch):
        # 4 x 200^3 cells exceed max(2^20, 4 x distinct points).
        table = make_random_table(300, d=3, qi_domain=200, m=4, seed=6)
        blocks = _blocks_by(table, (0,), range(150)) + [list(range(150, 300))]
        generalized = GeneralizedTable.from_partition(table, Partition(blocks, len(table)))
        assert self._paths(table, generalized, monkeypatch) == ["_sparse_fstar"]

    def test_membership_fallback_past_62_bits(self, monkeypatch):
        # Four exact positions of 50,000 codes need 2 x 50,000^4 > 2^62 keys.
        size = 50_000
        schema = Schema(
            qi=tuple(Attribute(f"Q{i}", tuple(range(size))) for i in range(5)),
            sensitive=Attribute("S", (0, 1)),
        )
        rng = random.Random(7)
        qi_rows, sa_values = [], []
        for _pair in range(8):
            prefix = tuple(rng.randrange(size) for _ in range(4))
            for sa in (0, 1):
                qi_rows.append(prefix + (rng.randrange(size),))
                sa_values.append(sa)
        for _row in range(40):
            qi_rows.append(tuple(rng.randrange(size) for _ in range(5)))
            sa_values.append(len(sa_values) % 2)
        table = Table(schema, qi_rows, sa_values)
        # Pairs share Q0..Q3 and star Q4; the rest form fully starred groups
        # of assorted sizes, so every point sums many mixture terms.  Listing
        # the groups backwards makes group-id order differ from
        # first-appearance order, which fixes the fallback's summation order.
        pairs = [[row, row + 1] for row in range(0, 16, 2)]
        rest = list(range(16, 56))
        starred = [rest[0:2], rest[2:5], rest[5:9], rest[9:14], rest[14:20], rest[20:40]]
        blocks = (pairs + starred)[::-1]
        generalized = GeneralizedTable.from_partition(table, Partition(blocks, len(table)))
        assert self._paths(table, generalized, monkeypatch) == [
            "_membership_fstar",
            "_sparse_fstar",
        ]
        # The fallback visits the group form's combos in the explicit-cells
        # order, so both forms sum the same terms in the same order.
        combo_sa, matrix, weights, _ = kl._weighted_combos(generalized)
        cells, order = kl._first_appearance_cells(generalized, matrix)
        rows = GeneralizedTable(
            table.schema, generalized.cell_rows, table.sa_values, generalized.group_ids
        )
        rows_sa, _, rows_weights, rows_cells = kl._weighted_combos(rows)
        assert cells == rows_cells
        assert combo_sa[order].tolist() == rows_sa.tolist()
        assert weights[order].tolist() == rows_weights.tolist()

    def test_merged_shards_with_row_less_groups(self, small_census, monkeypatch):
        generalized = merged_with_empty_groups(small_census, 3)
        assert self._paths(small_census, generalized, monkeypatch) == ["_dense_fstar"]
