"""Pure-Python oracles of the metrics' array paths.

Each function evaluates its metric one published row (or cell) at a time
through :meth:`GeneralizedTable.row_cells`, sharing no code with the
vectorized reduction it checks (``tests/test_vectorized_backend.py`` and
``tests/metrics/``):

* :func:`star_count_reference`, :func:`suppressed_tuple_count_reference` and
  :func:`star_count_by_attribute_reference` — the Problem 1 and 2
  objectives and their per-attribute split;
* :func:`ncp_reference` and :func:`discernibility_reference` — the
  certainty penalty and ``sum |G|^2``;
* :func:`kl_divergence_reference` — Equation 2 evaluated directly.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.dataset.generalized import STAR, GeneralizedTable, cell_size
from repro.dataset.table import Table


def star_count_reference(generalized: GeneralizedTable) -> int:
    """Total number of starred QI cells."""
    return sum(1 for row in generalized.cell_rows for cell in row if cell is STAR)


def suppressed_tuple_count_reference(generalized: GeneralizedTable) -> int:
    """Number of rows with at least one starred cell."""
    return sum(1 for row in generalized.cell_rows if any(cell is STAR for cell in row))


def star_count_by_attribute_reference(generalized: GeneralizedTable) -> dict[str, int]:
    """Starred cells per QI attribute."""
    names = generalized.schema.qi_names
    counts = dict.fromkeys(names, 0)
    for row in range(len(generalized)):
        cells = generalized.row_cells(row)
        for position, name in enumerate(names):
            if cells[position] is STAR:
                counts[name] += 1
    return counts


def ncp_reference(generalized: GeneralizedTable) -> float:
    """NCP summed cell by cell: ``(width - 1) / (|dom| - 1)`` per cell."""
    total = 0.0
    sizes = [attribute.size for attribute in generalized.schema.qi]
    for row in range(len(generalized)):
        cells = generalized.row_cells(row)
        for position, size in enumerate(sizes):
            if size <= 1:
                continue
            width = cell_size(cells[position], size)
            total += (width - 1) / (size - 1)
    return total


def discernibility_reference(generalized: GeneralizedTable) -> int:
    """``sum over QI-groups of |G|^2`` from the ``groups()`` row lists."""
    return sum(len(rows) ** 2 for rows in generalized.groups().values())


def kl_divergence_reference(table: Table, generalized: GeneralizedTable) -> float:
    """Equation 2 over every (observed point, generalized combo) pair."""
    if len(table) != len(generalized):
        raise ValueError("table and generalization must have the same number of rows")
    n = len(table)
    if n == 0:
        return 0.0
    dimension = table.dimension
    domain_sizes = [attribute.size for attribute in table.schema.qi]

    points: Counter[tuple[int, tuple[int, ...]]] = Counter(
        (table.sa_value(row), table.qi_row(row)) for row in range(n)
    )
    combos: Counter[tuple[int, tuple[object, ...]]] = Counter(
        (generalized.sa_value(row), generalized.row_cells(row)) for row in range(n)
    )

    divergence = 0.0
    for (sa, point), count in points.items():
        fstar = 0.0
        for (combo_sa, cells), weight in combos.items():
            if combo_sa != sa:
                continue
            probability = 1.0
            for position in range(dimension):
                cell = cells[position]
                if cell is STAR:
                    probability *= 1.0 / domain_sizes[position]
                elif isinstance(cell, frozenset):
                    if point[position] in cell:
                        probability *= 1.0 / len(cell)
                    else:
                        probability = 0.0
                        break
                elif cell != point[position]:
                    probability = 0.0
                    break
            fstar += weight * probability
        fstar /= n
        f = count / n
        if fstar <= 0.0:
            return math.inf
        divergence += f * math.log(f / fstar)
    return max(divergence, 0.0)
