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

The distinct observed points are read straight off the table's shared run encoding
(:meth:`~repro.dataset.table.Table.grouping` — the runs of the one
``(QI, SA)`` sort *are* the distinct points, with the run lengths as
counts).  The generalized side is a set of weighted ``(SA, cells)`` combos:

* a suppression table carrying its group form
  (:meth:`~repro.dataset.generalized.GeneralizedTable.columnar_publish`)
  yields them directly — the distinct ``(group, SA)`` pairs of
  ``group_sa_counts()`` weighted by their counts, with cells gathered from
  the starred per-group representative codes, with no per-row Python work
  and no per-row cell tuples;
* a table with explicit cells (TDS, Mondrian, ``preprocess``) deduplicates
  its rows by ``(SA, tuple identity)``, since rows of a QI-group share one
  cells tuple.

Suppression-only combos are grouped by star mask and evaluated either into
one dense ``(m, *domains)`` accumulator (small domains) or by a per-mask
sparse key join (large domains); both visit masks in ascending order with
exact integer weight sums, so they agree bit for bit.  Sub-domain cells, or
a sparse key past 62 bits, fall back to per-SA membership-matrix products.
Re-sorting the runs stably by SA keeps QI vectors ascending within each SA
bucket — the lexicographic ``(SA, QI..)`` order — so the summation order is
fixed.  The property tests check it against a direct pure-Python evaluation
of Equation 2 in ``tests/metric_oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dataset.generalized import STAR, GeneralizedTable
from repro.dataset.table import Table

__all__ = ["kl_divergence"]


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


def _weighted_combos(
    generalized: GeneralizedTable,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, list[tuple[object, ...]] | None]:
    """The weighted ``(SA, cells)`` combos of ``generalized``.

    Returns ``(combo_sa, combo_matrix, combo_weights, combo_cells)``.
    ``combo_matrix`` is the ``(combos, d)`` int64 cell matrix with ``-1``
    for a star, or ``None`` when a cell is a sub-domain.  ``combo_cells``
    holds the same combos as cells tuples for the membership-matrix
    fallback; it is ``None`` for the group form, which builds those tuples
    only if the fallback runs (:func:`_first_appearance_cells`).

    Suppression tables read their combos straight off the group form: the
    distinct ``(group, SA)`` pairs of :meth:`GeneralizedTable.group_sa_counts`
    with the pair counts as weights, and one gather of the starred
    representative codes as cells — no per-row work in Python.  Tables with
    explicit cells deduplicate their rows by ``(SA, tuple identity)`` (rows
    of a QI-group share one cells tuple) in first-appearance order.
    """
    form = generalized.columnar_publish()
    if form is not None:
        rep_codes, rep_star, _, _ = form
        gids, combo_sa, counts = generalized.group_sa_counts()
        combo_matrix = np.where(rep_star, -1, rep_codes.astype(np.int64))[gids]
        return combo_sa, combo_matrix, counts.astype(float), None

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
    combo_sa = np.asarray([sa for sa, _ in weights_by_key], dtype=np.int64)
    combo_weights = np.asarray(list(weights_by_key.values()), dtype=float)
    combo_cells = list(cells_by_key.values())

    # Rows of a group share one tuple, so convert each distinct tuple once.
    row_of_marker: dict[int, int] = {}
    matrix_rows: list[list[int]] = []
    combo_rows: list[int] = []
    for cells in combo_cells:
        row = row_of_marker.get(id(cells))
        if row is None:
            if any(isinstance(cell, frozenset) for cell in cells):
                return combo_sa, None, combo_weights, combo_cells
            row = row_of_marker[id(cells)] = len(matrix_rows)
            matrix_rows.append([-1 if cell is STAR else cell for cell in cells])
        combo_rows.append(row)
    matrix = np.asarray(matrix_rows, dtype=np.int64).reshape(
        len(matrix_rows), generalized.dimension
    )
    return combo_sa, matrix[np.asarray(combo_rows, dtype=np.intp)], combo_weights, combo_cells


def _first_appearance_cells(
    generalized: GeneralizedTable, combo_matrix: np.ndarray
) -> tuple[list[tuple[object, ...]], np.ndarray]:
    """Group-form combos as cells tuples, ordered by first row of appearance,
    plus the permutation that puts the combos into that order.

    That is the order the explicit-cells dedupe visits the same combos in,
    so the membership-matrix fallback sums them identically on both forms.
    Only the (rare) fallback pays for the ``np.unique`` over the rows.
    """
    m = max(int(generalized.schema.sensitive.size), 1)
    keys = (
        generalized.group_ids_array().astype(np.int64) * m
        + generalized.sa_codes().astype(np.int64)
    )
    # ``np.unique`` sorts by (group, SA), the order of group_sa_counts().
    _, first_rows = np.unique(keys, return_index=True)
    order = np.argsort(first_rows, kind="stable")
    return [
        tuple(STAR if code < 0 else code for code in row)
        for row in combo_matrix[order].tolist()
    ], order


def _mask_groups(
    combo_matrix: np.ndarray, domain_sizes: list[int]
) -> list[tuple[float, list[int], np.ndarray]]:
    """The combos grouped by star mask, masks in ascending bit order.

    One ``(factor, exact, selected)`` per mask: the uniform factor
    ``prod(1/size)`` over its starred positions (multiplied in position
    order), its exact positions, and the indices of its combos.
    """
    dimension = len(domain_sizes)
    bits = np.int64(1) << np.arange(dimension, dtype=np.int64)
    combo_masks = (combo_matrix < 0).astype(np.int64) @ bits
    groups = []
    for mask in np.unique(combo_masks).tolist():
        factor = 1.0
        exact: list[int] = []
        for position, size in enumerate(domain_sizes):
            if mask >> position & 1:
                factor *= 1.0 / size
            else:
                exact.append(position)
        groups.append((factor, exact, np.flatnonzero(combo_masks == mask)))
    return groups


def _suppression_fstar(
    combo_sa: np.ndarray,
    combo_matrix: np.ndarray,
    combo_weights: np.ndarray,
    sa_column: np.ndarray,
    qi_points: np.ndarray,
    domain_sizes: list[int],
    sa_size: int,
) -> np.ndarray | None:
    """Mixture evaluation for suppression-only combos, all SA at once.

    ``combo_matrix`` holds one row of cells per combo: an exact code, or
    ``-1`` for a star (the only two shapes the suppression pipeline
    publishes).  A combo covers a point iff the point matches its exact
    positions, and contributes a constant ``prod(1/size)`` over its starred
    positions.  Combos are grouped by star mask, and masks are visited in
    ascending bit order; each adds ``weight x factor`` to every point it
    covers, where the per-mask weight sums are exact small integers.  The
    number of distinct masks is the number of distinct per-group star sets
    (dozens, not thousands).  :func:`_dense_fstar` and :func:`_sparse_fstar`
    share that summation order and therefore agree bit for bit; the dense
    one runs when ``sa_size x prod(domain_sizes)`` is small (the bound
    :meth:`GeneralizedTable.group_sa_counts` uses).

    Returns the unnormalized mixture ``sum_c w_c P(point | combo c)`` per
    distinct point, or ``None`` when a sparse composite key overflows 62
    bits — the caller falls back to the membership-matrix evaluation.
    """
    by_mask = _mask_groups(combo_matrix, domain_sizes)
    sa_points = sa_column.astype(np.int64, copy=False)
    qi_points = qi_points.astype(np.int64, copy=False)
    shape = (int(sa_size), *(int(size) for size in domain_sizes))
    if math.prod(shape) <= max(1 << 20, 4 * sa_points.shape[0]):
        return _dense_fstar(
            by_mask, combo_sa, combo_matrix, combo_weights, sa_points, qi_points, shape
        )
    return _sparse_fstar(
        by_mask, combo_sa, combo_matrix, combo_weights, sa_points, qi_points, shape
    )


def _dense_fstar(
    by_mask, combo_sa, combo_matrix, combo_weights, sa_points, qi_points, shape
) -> np.ndarray:
    """Accumulate every mask into one dense ``(m, *domains)`` array, then
    gather it once at the distinct points.

    Per mask, one bincount over the ``(SA, exact positions)`` cells of its
    combos, broadcast over the starred axes.
    """
    dense = np.zeros(shape, dtype=float)
    for factor, exact, selected in by_mask:
        exact_shape = (shape[0], *(shape[1 + position] for position in exact))
        flat = np.ravel_multi_index(
            (combo_sa[selected], *(combo_matrix[selected, p] for p in exact)),
            exact_shape,
        )
        # bincount over integer weights is exact in float64 (weights < 2^53).
        sums = np.bincount(
            flat, weights=combo_weights[selected], minlength=math.prod(exact_shape)
        )
        broadcast = [shape[0]] + [1] * (len(shape) - 1)
        for position in exact:
            broadcast[1 + position] = shape[1 + position]
        dense += (sums * factor).reshape(broadcast)
    return dense[(sa_points, *qi_points.T)]


def _sparse_fstar(
    by_mask, combo_sa, combo_matrix, combo_weights, sa_points, qi_points, shape
) -> np.ndarray | None:
    """Per mask, a hash join of combos and points on one composite integer
    key over ``(SA, exact positions)``, matched with a single
    ``searchsorted`` across *all* distinct points; ``None`` when a key
    needs more than 62 bits."""
    fstar = np.zeros(sa_points.shape[0], dtype=float)
    for factor, exact, selected in by_mask:
        if shape[0] * math.prod(shape[1 + p] for p in exact) > 1 << 62:
            return None
        combo_keys = combo_sa[selected].astype(np.int64, copy=True)
        point_keys = sa_points.copy()
        for position in exact:
            size = np.int64(shape[1 + position])
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


def _membership_fstar(
    combo_cells: list[tuple[object, ...]],
    combo_weights: np.ndarray,
    points: np.ndarray,
    domain_sizes: list[int],
) -> np.ndarray:
    """Dense membership-matrix mixture for one SA bucket (any cell shape)."""
    # membership[combo, code] = P(code | combo cell on attribute a)
    product = np.ones((len(combo_cells), points.shape[0]), dtype=float)
    for position, size in enumerate(domain_sizes):
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
    return combo_weights @ product


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
    domain_sizes = [attribute.size for attribute in table.schema.qi]

    combo_sa, combo_matrix, combo_weights, combo_cells = _weighted_combos(generalized)
    fstar_all = None
    if combo_matrix is not None:
        fstar_all = _suppression_fstar(
            combo_sa,
            combo_matrix,
            combo_weights,
            sa_column,
            qi_points,
            domain_sizes,
            table.schema.sensitive.size,
        )
    # Sub-domain cells, or a sparse key past 62 bits: per-SA-bucket
    # membership-matrix products over the combos in first-appearance order.
    combos: dict[int, tuple[list[tuple[object, ...]], list[float]]] = {}
    if fstar_all is None:
        if combo_cells is None:
            combo_cells, order = _first_appearance_cells(generalized, combo_matrix)
            combo_sa, combo_weights = combo_sa[order], combo_weights[order]
        for sa, cells, weight in zip(combo_sa.tolist(), combo_cells, combo_weights.tolist()):
            bucket = combos.setdefault(sa, ([], []))
            bucket[0].append(cells)
            bucket[1].append(weight)

    divergence = 0.0
    for start, end in zip(run_starts[:-1], run_starts[1:]):
        sa = int(sa_column[start])
        points = qi_points[start:end]
        counts = point_counts[start:end].astype(np.float64)

        if fstar_all is not None:
            fstar = fstar_all[start:end] / n
        else:
            bucket_cells, weight_list = combos.get(sa, ([], []))
            if bucket_cells:
                fstar = _membership_fstar(
                    bucket_cells,
                    np.asarray(weight_list, dtype=float),
                    points,
                    domain_sizes,
                ) / n
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
