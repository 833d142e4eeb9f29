"""Row-at-a-time oracles of the grouping, suppression and ordering array paths.

Each function walks rows through plain Python containers, sharing no code
with the production path it checks (``grouping_context_reference`` shares
the full-width boundary scan, which production runs only for keys wider
than 62 bits):

* :func:`group_by_qi_reference` is :meth:`Table.group_by_qi` one row at a
  time, and :func:`grouping_context_reference` is
  :meth:`GroupingContext.build` through the full-width boundary scan
  (checked in ``tests/test_vectorized_backend.py`` and
  ``tests/core/test_grouping.py``, and by ``scripts/scale_smoke.py``);
* :func:`from_partition_reference` is suppression (Definition 1) cell by
  cell, the oracle of :meth:`GeneralizedTable.from_partition`;
* :func:`hilbert_order_reference` sorts rows by the scalar
  :func:`~repro.baselines.hilbert.curve.hilbert_index`, the oracle of
  :func:`~repro.baselines.hilbert.anonymizer.hilbert_order` at every key width;
* :func:`is_l_diverse_reference`, :func:`is_k_anonymous_reference` and
  :func:`diversity_report_reference` answer
  :meth:`GeneralizedTable.is_l_diverse` / :meth:`~GeneralizedTable.is_k_anonymous`
  and :func:`repro.privacy.checks.diversity_report` from the ``groups()``
  row lists, over dense, gapped and negative explicit group ids (checked in
  ``tests/dataset/test_generalized.py``);
* :func:`scan_reference` is streaming pass one
  (:func:`repro.service.streaming._scan`) one tuple at a time (checked in
  ``tests/service/test_scale.py``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.baselines.hilbert.curve import bits_needed, hilbert_index
from repro.core.grouping import GroupingContext, sort_qi_sa
from repro.dataset.generalized import STAR, Cell, GeneralizedTable, Partition
from repro.dataset.table import Table
from repro.engine import CsvSource
from repro.privacy.checks import DiversityReport


def group_by_qi_reference(table: Table) -> dict[tuple[int, ...], list[int]]:
    """``{QI vector: row indices}`` in first-appearance order, one row at a time."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for index, row in enumerate(table.qi_rows):
        groups.setdefault(row, []).append(index)
    return groups


def grouping_context_reference(
    columns: np.ndarray,
    sa: np.ndarray,
    qi_sizes: Sequence[int],
    sa_size: int,
    order: np.ndarray | None = None,
) -> GroupingContext:
    """:meth:`GroupingContext.build` through the full-width boundary scan."""
    n, dimension = columns.shape
    if n == 0:
        return GroupingContext(
            np.zeros((0, dimension), dtype=np.int32),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.intp),
        )
    if order is None:
        order = sort_qi_sa(columns, sa, qi_sizes, sa_size)
    else:
        order = np.asarray(order, dtype=np.intp)
    return GroupingContext._build_from_wide_scan(columns, sa, order)


def from_partition_reference(table: Table, partition: Partition) -> GeneralizedTable:
    """Suppression (Definition 1) one cell at a time, into explicit cells."""
    if partition.n_rows != len(table):
        raise ValueError("partition size does not match table size")
    dimension = table.dimension
    cells: list[tuple[Cell, ...] | None] = [None] * len(table)
    group_ids = [0] * len(table)
    for group_id, group in enumerate(partition.groups):
        representative: list[Cell] = list(table.qi_row(group[0]))
        for index in group[1:]:
            row = table.qi_row(index)
            for position in range(dimension):
                if representative[position] is not STAR and representative[position] != row[position]:
                    representative[position] = STAR
        generalized = tuple(representative)
        for index in group:
            cells[index] = generalized
            group_ids[index] = group_id
    return GeneralizedTable(table.schema, cells, list(table.sa_values), group_ids)


def hilbert_order_reference(table: Table, rows: Sequence[int] | None = None) -> list[int]:
    """Rows sorted by ``(scalar Hilbert index, row index)`` as Python ints."""
    if rows is None:
        rows = range(len(table))
    bits = bits_needed([attribute.size for attribute in table.schema.qi])
    keyed = [(hilbert_index(table.qi_row(row), bits), row) for row in rows]
    keyed.sort()
    return [row for _key, row in keyed]


def is_l_diverse_reference(generalized: GeneralizedTable, l: int) -> bool:
    """Whether every QI-group's tallest SA count times ``l`` fits its size."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    sa_values = generalized.sa_values
    for rows in generalized.groups().values():
        counts = Counter(sa_values[index] for index in rows)
        if max(counts.values()) * l > len(rows):
            return False
    return True


def is_k_anonymous_reference(generalized: GeneralizedTable, k: int) -> bool:
    """Whether every QI-group has at least ``k`` rows."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return all(len(rows) >= k for rows in generalized.groups().values())


def diversity_report_reference(generalized: GeneralizedTable) -> DiversityReport:
    """Group count, smallest group, worst SA confidence and achieved ``l``."""
    groups = generalized.groups()
    if not groups:
        return DiversityReport(group_count=0, min_group_size=0, max_confidence=0.0, achieved_l=0)
    max_confidence = 0.0
    achieved_l = len(generalized)
    for rows in groups.values():
        counts = Counter(generalized.sa_value(row) for row in rows)
        top = max(counts.values())
        max_confidence = max(max_confidence, top / len(rows))
        achieved_l = min(achieved_l, len(rows) // top)
    return DiversityReport(
        group_count=len(groups),
        min_group_size=min(len(rows) for rows in groups.values()),
        max_confidence=max_confidence,
        achieved_l=achieved_l,
    )


def scan_reference(source: CsvSource) -> tuple[dict[tuple, Counter], int]:
    """Per-QI-key SA histograms and the row count, one tuple at a time."""
    table = source.load()
    sa_values = table.sa_values
    key_histograms: dict[tuple, Counter] = {}
    for key, rows in table.group_by_qi().items():
        histogram = key_histograms.setdefault(key, Counter())
        for row in rows:
            histogram[sa_values[row]] += 1
    return key_histograms, len(table)
