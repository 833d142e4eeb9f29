"""Star-based information loss (the objectives of Problems 1 and 2).

Counts are computed from the cached boolean star mask of the generalized
table (one vectorized reduction each); the pure-Python ``*_reference``
variants are retained as oracles for the property tests.
"""

from __future__ import annotations

from repro.dataset.generalized import STAR, GeneralizedTable

__all__ = [
    "star_count",
    "star_count_by_attribute",
    "star_count_by_attribute_reference",
    "suppressed_tuple_count",
    "suppression_ratio",
]


def star_count(generalized: GeneralizedTable) -> int:
    """Total number of suppressed QI cells (Problem 1 objective)."""
    return generalized.star_count()


def star_count_by_attribute(generalized: GeneralizedTable) -> dict[str, int]:
    """Number of stars per QI attribute (useful for diagnosing which attributes hurt)."""
    names = generalized.schema.qi_names
    per_column = generalized.star_mask().sum(axis=0)
    return {name: int(count) for name, count in zip(names, per_column)}


def star_count_by_attribute_reference(generalized: GeneralizedTable) -> dict[str, int]:
    """Pure-Python per-attribute star count (the oracle for the vectorized path)."""
    names = generalized.schema.qi_names
    counts = dict.fromkeys(names, 0)
    for row in range(len(generalized)):
        cells = generalized.row_cells(row)
        for position, name in enumerate(names):
            if cells[position] is STAR:
                counts[name] += 1
    return counts


def suppressed_tuple_count(generalized: GeneralizedTable) -> int:
    """Number of rows carrying at least one star (Problem 2 objective)."""
    return generalized.suppressed_tuple_count()


def suppression_ratio(generalized: GeneralizedTable) -> float:
    """Fraction of QI cells that are stars (0 for an untouched table)."""
    total = len(generalized) * generalized.dimension
    if total == 0:
        return 0.0
    return generalized.star_count() / total
