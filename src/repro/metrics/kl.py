"""KL-divergence between the microdata and an anonymized table (Section 6.2).

Equation 2 of the paper: view every row as a point in the
``(d + 1)``-dimensional space spanned by the QI attributes and the SA.  The
microdata ``T`` induces the empirical distribution ``f``; a generalization
``T*`` induces ``f*`` by treating each generalized cell as a uniform
distribution over the values it may stand for (the full domain for a star, a
sub-domain for single-/multi-dimensional generalization, a single value for
an exact cell), while sensitive values stay exact.  The utility loss is
``KL(f, f*) = sum_p f(p) ln(f(p) / f*(p))``.

``f*(p)`` is never zero at an observed point ``p`` because the generalization
of the very row that produced ``p`` always covers ``p``.

The computation is vectorized per sensitive value: the distinct observed
points are read straight off the table's shared run encoding
(:meth:`~repro.dataset.table.Table.grouping` — the runs of the one
``(QI, SA)`` sort *are* the distinct points, with the run lengths as
counts), distinct generalized cell-vectors (deduplicated by tuple identity —
rows of a QI-group share one tuple) become per-attribute membership matrices,
and the mixture is evaluated with a couple of matrix products.  This keeps
the metric fast enough to run inside the figure-7/8 benchmarks.
:func:`kl_divergence_reference` retains a direct pure-Python evaluation of
Equation 2 as the oracle for the property tests.  Re-sorting the runs
stably by SA keeps QI vectors ascending within each SA bucket — the
lexicographic ``(SA, QI..)`` order — so the summation order is fixed.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from repro.dataset.generalized import STAR, GeneralizedTable
from repro.dataset.table import Table

__all__ = ["kl_divergence", "kl_divergence_reference"]


def kl_divergence(table: Table, generalized: GeneralizedTable) -> float:
    """``KL(f, f*)`` between ``table`` and its generalization (Equation 2).

    The distinct-point side comes from the table's shared grouping context:
    every maximal ``(QI, SA)`` run of the one cached sort is one distinct
    point with its count, so no second full-table ``np.unique`` pass runs.
    """
    if len(table) != len(generalized):
        raise ValueError("table and generalization must have the same number of rows")
    n = len(table)
    if n == 0:
        return 0.0

    # Distinct original points, bucketed by SA.  The run encoding already
    # enumerates the distinct (QI, SA) points in (QI, SA) order; a stable
    # argsort over the run SA codes regroups them into contiguous SA buckets
    # while keeping QI ascending within each bucket — the exact lexicographic
    # (SA, QI..) order.
    context = table.grouping()
    by_sa = np.argsort(context.run_values, kind="stable")
    sa_column = context.run_values[by_sa]
    qi_points = context.group_keys[context.run_group_ids[by_sa]]
    all_counts = context.run_lengths[by_sa]
    run_starts = np.concatenate(
        ([0], np.flatnonzero(sa_column[1:] != sa_column[:-1]) + 1, [len(sa_column)])
    )
    return _kl_from_points(
        table, generalized, sa_column, qi_points, all_counts, run_starts
    )


def _suppression_fstar(
    combo_sa: np.ndarray,
    unique_cells: list,
    combo_cell_index: np.ndarray,
    combo_weights: np.ndarray,
    sa_column: np.ndarray,
    qi_points: np.ndarray,
    domain_sizes: list[int],
    sa_size: int,
) -> np.ndarray | None:
    """Sparse mixture evaluation for suppression-only combos, all SA at once.

    When every combo cell is either an exact code or ``STAR`` (the only two
    shapes the suppression pipeline publishes), a combo covers a point iff
    the point matches its exact positions, and contributes a constant
    ``prod(1/size)`` over its starred positions.  Grouping combos by star
    mask turns the dense ``O(combos x points)`` membership product into a
    hash join: per mask, one composite integer key over ``(SA, exact
    positions)`` for combos and points, matched with a single
    ``searchsorted`` across *all* distinct points — ``O((combos + points)
    log)`` per mask, and the number of distinct masks is the number of
    distinct per-group star sets (dozens, not thousands).

    Deterministic by construction: masks are visited in ascending bit order,
    and per-key weight sums are exact small integers.

    Returns the unnormalized mixture ``sum_c w_c P(point | combo c)`` per
    distinct point, or ``None`` when a combo holds a sub-domain
    (``frozenset``) cell or a composite key overflows 62 bits — the caller
    falls back to the dense membership-matrix evaluation.
    """
    dimension = len(domain_sizes)
    matrix = np.empty((len(unique_cells), dimension), dtype=np.int64)
    for row, cells in enumerate(unique_cells):
        for position, cell in enumerate(cells):
            if cell is STAR:
                matrix[row, position] = -1
            elif isinstance(cell, frozenset):
                return None
            else:
                matrix[row, position] = cell

    bits = np.int64(1) << np.arange(dimension, dtype=np.int64)
    cell_masks = (matrix < 0).astype(np.int64) @ bits
    combo_masks = cell_masks[combo_cell_index]
    combo_matrix = matrix[combo_cell_index]
    sa_points = sa_column.astype(np.int64, copy=False)
    qi_points = qi_points.astype(np.int64, copy=False)

    fstar = np.zeros(sa_points.shape[0], dtype=float)
    for mask in np.unique(combo_masks):
        selected = np.flatnonzero(combo_masks == mask)
        factor = 1.0
        exact: list[int] = []
        radix = int(sa_size)
        for position in range(dimension):
            if int(mask) >> position & 1:
                factor *= 1.0 / domain_sizes[position]
            else:
                exact.append(position)
                radix *= int(domain_sizes[position])
        if radix > 1 << 62:
            return None
        combo_keys = combo_sa[selected].astype(np.int64, copy=True)
        point_keys = sa_points.copy()
        for position in exact:
            size = np.int64(domain_sizes[position])
            combo_keys *= size
            combo_keys += combo_matrix[selected, position]
            point_keys *= size
            point_keys += qi_points[:, position]
        unique_keys, inverse = np.unique(combo_keys, return_inverse=True)
        # bincount over integer weights is exact in float64 (weights < 2^53).
        weight_sums = np.bincount(inverse, weights=combo_weights[selected])
        slots = np.minimum(
            np.searchsorted(unique_keys, point_keys), len(unique_keys) - 1
        )
        matched = unique_keys[slots] == point_keys
        fstar += np.where(matched, weight_sums[slots], 0.0) * factor
    return fstar


def _kl_from_points(
    table: Table,
    generalized: GeneralizedTable,
    sa_column: np.ndarray,
    qi_points: np.ndarray,
    point_counts: np.ndarray,
    run_starts: np.ndarray,
) -> float:
    """Evaluate Equation 2 given the distinct observed points per SA bucket."""
    n = len(table)
    dimension = table.dimension
    domain_sizes = [attribute.size for attribute in table.schema.qi]

    # Distinct generalized rows, bucketed by SA.  Rows of a QI-group share one
    # cells tuple, so deduplicating by (SA, tuple identity) costs O(n) cheap
    # dict lookups with no per-row tuple-content hashing; the tuples are
    # pinned alive by the generalized table itself.  Content-equal tuples
    # from different groups stay separate combos, which leaves the mixture
    # ``f*`` unchanged (it is linear in the combo weights).
    generalized_sa = generalized.sa_values
    weights_by_key: dict[tuple[int, int], int] = {}
    cells_by_key: dict[tuple[int, int], tuple[object, ...]] = {}
    for row, cells in enumerate(generalized.cell_rows):
        key = (generalized_sa[row], id(cells))
        if key in weights_by_key:
            weights_by_key[key] += 1
        else:
            weights_by_key[key] = 1
            cells_by_key[key] = cells

    combo_sa_list: list[int] = []
    combo_weight_list: list[int] = []
    combo_cell_index_list: list[int] = []
    unique_cells: list[tuple[object, ...]] = []
    row_of_marker: dict[int, int] = {}
    for (sa, marker), weight in weights_by_key.items():
        combo_sa_list.append(sa)
        combo_weight_list.append(weight)
        cell_row = row_of_marker.get(marker)
        if cell_row is None:
            cell_row = row_of_marker[marker] = len(unique_cells)
            unique_cells.append(cells_by_key[(sa, marker)])
        combo_cell_index_list.append(cell_row)

    # Suppression-only generalizations take one global sparse star-mask join
    # over every SA bucket at once; any sub-domain (frozenset) cell falls
    # back to the per-bucket dense membership-matrix product below.
    fstar_all = _suppression_fstar(
        np.asarray(combo_sa_list, dtype=np.int64),
        unique_cells,
        np.asarray(combo_cell_index_list, dtype=np.intp),
        np.asarray(combo_weight_list, dtype=float),
        sa_column,
        qi_points,
        domain_sizes,
        table.schema.sensitive.size,
    )
    combos: dict[int, tuple[list[tuple[object, ...]], list[int]]] = {}
    if fstar_all is None:
        for (sa, marker), weight in weights_by_key.items():
            bucket = combos.setdefault(sa, ([], []))
            bucket[0].append(cells_by_key[(sa, marker)])
            bucket[1].append(weight)

    divergence = 0.0
    for start, end in zip(run_starts[:-1], run_starts[1:]):
        sa = int(sa_column[start])
        points = qi_points[start:end]
        counts = point_counts[start:end].astype(np.float64)

        if fstar_all is not None:
            fstar = fstar_all[start:end] / n
        else:
            combo_cells, weight_list = combos.get(sa, ([], []))
            combo_weights = np.asarray(weight_list, dtype=float)
            if combo_cells:
                # membership[combo, code] = P(code | combo cell on attribute a)
                product = np.ones((len(combo_cells), points.shape[0]), dtype=float)
                for position in range(dimension):
                    size = domain_sizes[position]
                    membership = np.zeros((len(combo_cells), size), dtype=float)
                    for combo_index, cells in enumerate(combo_cells):
                        cell = cells[position]
                        if cell is STAR:
                            membership[combo_index, :] = 1.0 / size
                        elif isinstance(cell, frozenset):
                            weight = 1.0 / len(cell)
                            for code in cell:
                                membership[combo_index, code] = weight
                        else:
                            membership[combo_index, cell] = 1.0
                    product *= membership[:, points[:, position]]
                fstar = (combo_weights @ product) / n
            else:  # pragma: no cover - every SA in T is present in T*
                fstar = np.zeros(points.shape[0])

        f = counts / n
        with np.errstate(divide="ignore"):
            ratio = np.where(fstar > 0, f / np.maximum(fstar, 1e-300), np.inf)
        contribution = f * np.log(ratio)
        if not np.all(np.isfinite(contribution)):
            return math.inf
        divergence += float(contribution.sum())
    # Numerical noise can push a perfect reconstruction epsilon-negative.
    return max(divergence, 0.0)


def kl_divergence_reference(table: Table, generalized: GeneralizedTable) -> float:
    """Pure-Python evaluation of Equation 2 (the oracle for the vectorized path)."""
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
