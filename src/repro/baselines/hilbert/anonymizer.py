"""Suppression-based l-diverse partitioning along the Hilbert curve.

This is the ``Hilbert`` baseline of Section 6.1: the multi-dimensional
algorithm of Ghinita et al. [16] adapted to suppression (the paper does the
same adaptation when comparing against it).  Tuples are sorted by their
Hilbert index over the QI space; the sorted sequence is then scanned once,
greedily closing a QI-group as soon as it is l-eligible.  Curve locality
means consecutive tuples tend to agree on many QI attributes, so the
resulting groups are cheap in stars even though the algorithm is oblivious
to the global structure the TP algorithm exploits.

The same partitioning routine doubles as the residue refiner inside TP+
(:func:`hilbert_refiner`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.baselines.hilbert.curve import bits_needed, hilbert_key_words
from repro.core.eligibility import is_l_eligible
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.table import Table
from repro.errors import IneligibleTableError

__all__ = [
    "HilbertResult",
    "anonymize",
    "hilbert_order",
    "hilbert_refiner",
    "partition_rows",
]


@dataclass(frozen=True)
class HilbertResult:
    """Outcome of the Hilbert baseline."""

    table: Table
    l: int
    partition: Partition
    generalized: GeneralizedTable

    @property
    def star_count(self) -> int:
        return self.generalized.star_count()

    @property
    def suppressed_tuple_count(self) -> int:
        return self.generalized.suppressed_tuple_count()


def hilbert_order(table: Table, rows: Sequence[int] | None = None) -> list[int]:
    """Row indices sorted by Hilbert index over the QI space.

    Ties (identical QI vectors) are broken by row index so the order is
    deterministic.  Keys of any width sort as their int64 words
    (:func:`~repro.baselines.hilbert.curve.hilbert_key_words`).
    """
    if rows is None:
        row_index = np.arange(len(table), dtype=np.int64)
        coords = table.qi_columns
    else:
        row_index = np.asarray(rows, dtype=np.int64)
        coords = np.take(table.qi_columns, row_index, axis=0)
    if row_index.size == 0:
        return []
    bits = bits_needed([attribute.size for attribute in table.schema.qi])
    words = hilbert_key_words(coords, bits)
    # lexsort sorts by the last key first: primary = the most significant
    # word, ties broken by ascending row index.
    order = np.lexsort((row_index, *words[::-1]))
    return row_index[order].tolist()


def partition_rows(table: Table, rows: Sequence[int], l: int) -> list[list[int]]:
    """Partition ``rows`` into l-eligible QI-groups of curve-adjacent tuples.

    The multiset of sensitive values of ``rows`` must itself be l-eligible;
    otherwise no valid partition exists and
    :class:`~repro.errors.IneligibleTableError` is raised.

    The scan closes the running group as soon as it becomes l-eligible (and
    has at least ``l`` tuples).  Any ineligible tail left at the end of the
    scan is merged backwards into the previously closed groups until the
    union becomes eligible again, which always terminates because the full
    input is eligible (Lemma 1 guarantees merging preserves eligibility of
    the already-closed part).
    """
    rows = list(rows)
    if not rows:
        return []
    sa = table.sa_values
    overall = Counter(sa[row] for row in rows)
    if not is_l_eligible(overall, l):
        raise IneligibleTableError(
            "the given rows are not l-eligible; they cannot be partitioned into "
            "l-eligible QI-groups"
        )

    ordered = hilbert_order(table, rows)
    groups: list[list[int]] = []
    current: list[int] = []
    current_counts: Counter[int] = Counter()
    # Track the pillar height incrementally (it only grows within a running
    # group), so the closure test is O(1) per tuple instead of a histogram
    # scan: the group closes when |G| >= l and l * h(G) <= |G|.
    current_height = 0
    current_size = 0
    for row in ordered:
        current.append(row)
        value = sa[row]
        count = current_counts[value] + 1
        current_counts[value] = count
        current_size += 1
        if count > current_height:
            current_height = count
        if current_size >= l and l * current_height <= current_size:
            groups.append(current)
            current = []
            current_counts = Counter()
            current_height = 0
            current_size = 0

    if current:
        # Merge the ineligible tail backwards until eligibility is restored.
        tail = current
        tail_counts = current_counts
        while groups and not is_l_eligible(tail_counts, l):
            previous = groups.pop()
            tail = previous + tail
            tail_counts.update(sa[row] for row in previous)
        groups.append(tail)
    return groups


def hilbert_refiner(table: Table, rows: Sequence[int], l: int) -> list[list[int]]:
    """Residue refiner used by TP+ — simply :func:`partition_rows`."""
    return partition_rows(table, rows, l)


def anonymize(table: Table, l: int) -> HilbertResult:
    """Compute an l-diverse suppression of ``table`` with the Hilbert baseline."""
    if l < 2:
        raise ValueError(f"l must be >= 2 for anonymization, got {l}")
    if not table.is_l_eligible(l):
        raise IneligibleTableError(
            f"table is not {l}-eligible; no l-diverse generalization exists"
        )
    groups = partition_rows(table, list(range(len(table))), l)
    # Valid by construction: the scan partitions the full Hilbert order.
    partition = Partition.trusted(groups, len(table))
    generalized = GeneralizedTable.from_partition(table, partition)
    return HilbertResult(table=table, l=l, partition=partition, generalized=generalized)
