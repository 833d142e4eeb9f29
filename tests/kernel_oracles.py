"""Pure-Python oracles of the fused kernels in :mod:`repro.core.kernels`.

Each function answers the same question as its kernel one element at a time,
sharing no code with it, so the hypothesis tests in
``tests/core/test_kernels.py`` compare two independent computations.  Phase
one's oracle lives with the per-tuple TP oracle in ``tests/tp_oracle.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "grouped_min_max_reference",
    "pillar_overlap_counts_reference",
    "stable_argsort_reference",
]


def stable_argsort_reference(keys: np.ndarray) -> np.ndarray:
    """A stable argsort of ``keys`` by Python's (stable) Timsort."""
    values = keys.tolist()
    return np.asarray(
        sorted(range(len(values)), key=values.__getitem__), dtype=np.intp
    )


def pillar_overlap_counts_reference(
    pillar_run_group_ids: np.ndarray,
    pillar_run_values: np.ndarray,
    pending_values: Sequence[int],
    group_count: int,
) -> np.ndarray:
    """Oracle for :func:`~repro.core.kernels.pillar_overlap_counts` (plain Python loop)."""
    pending = set(int(value) for value in pending_values)
    counts = np.zeros(group_count, dtype=np.int64)
    for group_id, value in zip(
        pillar_run_group_ids.tolist(), pillar_run_values.tolist()
    ):
        if value in pending:
            counts[group_id] += 1
    return counts


def grouped_min_max_reference(
    columns: np.ndarray, members: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for :func:`~repro.core.kernels.grouped_min_max` (plain Python loops)."""
    width = int(columns.shape[1])
    bounds = list(starts.tolist()) + [int(members.shape[0])]
    minima = np.zeros((len(bounds) - 1, width), dtype=columns.dtype)
    maxima = np.zeros((len(bounds) - 1, width), dtype=columns.dtype)
    for group, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        rows = [columns[int(members[index])] for index in range(lo, hi)]
        for position in range(width):
            values = [int(row[position]) for row in rows]
            minima[group, position] = min(values)
            maxima[group, position] = max(values)
    return minima, maxima
