"""Auxiliary information-loss measures (extension experiments).

These metrics are not part of the paper's figures but are standard in the
anonymization literature and useful when comparing suppression against the
generalization baselines on equal footing:

* NCP / GCP — (global) certainty penalty: how much of each attribute's domain
  a generalized cell spans;
* discernibility — the classic ``sum over groups of |G|^2`` penalty;
* average group size.

NCP runs as a group-level reduction over the generalized table's shared
per-group caches (star flags and sizes seeded by ``from_partition``, the
bincount of the group-id vector otherwise); tables without star flags
(sub-domain baselines) take a row-level reduction instead.  Discernibility
and average group size read every present group's size from
:meth:`~repro.dataset.generalized.GeneralizedTable.group_sizes_heights`,
which takes any group ids.  Their pure-Python oracles live in
``tests/metric_oracles.py``.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.generalized import GeneralizedTable

__all__ = [
    "ncp",
    "gcp",
    "discernibility",
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


def gcp(generalized: GeneralizedTable) -> float:
    """Global Certainty Penalty: NCP normalized to [0, 1] by ``n * d``."""
    cells = len(generalized) * generalized.dimension
    if cells == 0:
        return 0.0
    return ncp(generalized) / cells


def discernibility(generalized: GeneralizedTable) -> int:
    """The discernibility metric: ``sum over QI-groups of |G|^2``."""
    sizes, _heights = generalized.group_sizes_heights()
    return int((sizes.astype(np.int64) ** 2).sum())


def average_group_size(generalized: GeneralizedTable) -> float:
    """Average QI-group size of the anonymized table."""
    sizes, _heights = generalized.group_sizes_heights()
    return len(generalized) / sizes.size if sizes.size else 0.0
