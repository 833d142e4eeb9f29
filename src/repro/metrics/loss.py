"""Auxiliary information-loss measures (extension experiments).

These metrics are not part of the paper's figures but are standard in the
anonymization literature and useful when comparing suppression against the
generalization baselines on equal footing:

* NCP / GCP — (global) certainty penalty: how much of each attribute's domain
  a generalized cell spans;
* discernibility — the classic ``sum over groups of |G|^2`` penalty;
* average group size.

NCP and discernibility run as group-level reductions over the generalized
table's shared per-group caches (star flags and sizes seeded by
``from_partition``, the bincount of the group-id vector otherwise).  Tables
without that group form (sub-domain baselines, negative group ids) take
row-level reductions instead.  The ``*_reference`` variants retain the
pure-Python loops as oracles for the property tests.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.generalized import GeneralizedTable, cell_size

__all__ = [
    "ncp",
    "ncp_reference",
    "gcp",
    "discernibility",
    "discernibility_reference",
    "average_group_size",
]


def ncp(generalized: GeneralizedTable) -> float:
    """Normalized Certainty Penalty summed over all QI cells.

    A cell spanning ``w`` of the ``|dom|`` values of its attribute costs
    ``(w - 1) / (|dom| - 1)`` (0 for exact cells, 1 for stars); single-valued
    domains cost nothing.

    Suppression tables carry per-group star flags, so the penalty collapses
    to (stars among multi-valued attributes per group) x (group size) — a
    reduction over ``s`` groups instead of ``n`` rows.  Every cell penalty
    is 0.0 or 1.0 and the partial sums are exact integers, so the group
    path is bit-identical to the row-level ``width_matrix`` reduction,
    which remains the path for tables without star flags (sub-domain
    baselines).
    """
    if len(generalized) == 0 or generalized.dimension == 0:
        return 0.0
    domains = np.asarray(
        [attribute.size for attribute in generalized.schema.qi], dtype=np.float64
    )
    multi = domains > 1
    if not multi.any():
        return 0.0
    star = generalized.group_star_flags()
    if star is not None:
        sizes = generalized.group_sizes_array()
        if sizes.shape[0] == star.shape[0]:
            per_group = star[:, multi].sum(axis=1).astype(np.int64)
            return float((per_group * sizes).sum())
    penalties = (generalized.width_matrix()[:, multi] - 1.0) / (domains[multi] - 1.0)
    return float(penalties.sum())


def ncp_reference(generalized: GeneralizedTable) -> float:
    """Pure-Python NCP (the oracle for the vectorized path)."""
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


def gcp(generalized: GeneralizedTable) -> float:
    """Global Certainty Penalty: NCP normalized to [0, 1] by ``n * d``."""
    cells = len(generalized) * generalized.dimension
    if cells == 0:
        return 0.0
    return ncp(generalized) / cells


def discernibility(generalized: GeneralizedTable) -> int:
    """The discernibility metric: ``sum over QI-groups of |G|^2``.

    Reads the cached per-group size array (a bincount shared with the other
    metrics and the privacy checks) instead of running its own full-table
    ``np.unique`` pass; explicitly constructed tables with negative group
    ids still take the ``np.unique`` pass.
    """
    if len(generalized) == 0:
        return 0
    gids = generalized.group_ids_array()
    if int(gids.min()) >= 0:
        sizes = generalized.group_sizes_array().astype(np.int64)
        return int((sizes**2).sum())
    _ids, counts = np.unique(gids, return_counts=True)
    return int((counts.astype(np.int64) ** 2).sum())


def discernibility_reference(generalized: GeneralizedTable) -> int:
    """Pure-Python discernibility (the oracle for the vectorized path)."""
    return sum(len(rows) ** 2 for rows in generalized.groups().values())


def average_group_size(generalized: GeneralizedTable) -> float:
    """Average QI-group size of the anonymized table."""
    if len(generalized):
        gids = generalized.group_ids_array()
        if int(gids.min()) >= 0:
            sizes = generalized.group_sizes_array()
            occupied = int(np.count_nonzero(sizes))
            return len(generalized) / occupied
    groups = generalized.groups()
    if not groups:
        return 0.0
    return len(generalized) / len(groups)
