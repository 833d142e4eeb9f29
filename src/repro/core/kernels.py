"""Fused, vectorized group-metric kernels for the three-phase algorithm.

The run encoding produced by :meth:`Table.qi_sa_runs_arrays` lays every
QI-group out as a contiguous span of ``(sensitive value, count)`` runs.  The
kernels here answer whole-state questions — per-group sizes and pillar
heights, phase-one stopping heights, greedy-cover overlap counts — with a
few :func:`np.add.reduceat` / :func:`np.bincount` passes over those arrays
instead of one Python loop iteration per group.  Every kernel runs serially
on the calling thread.

The kernels' pure-Python oracles live in ``tests/kernel_oracles.py``, and
phase one's with the per-tuple TP oracle in ``tests/tp_oracle.py``; the
algorithm-level oracles are the per-tuple TP and the row-at-a-time
grouping and suppression oracles beside it, plus the pinned digests of
``scripts/privacy_smoke.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "composite_codes",
    "group_sizes_heights",
    "grouped_min_max",
    "phase_one_stop_heights",
    "pillar_overlap_counts",
    "stable_sort_pairs",
]


def group_sizes_heights(
    run_lengths: np.ndarray, group_run_bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group tuple counts and pillar heights, one reduceat pass each.

    ``run_lengths`` holds the length of every ``(QI, SA)`` run and
    ``group_run_bounds`` the ``s + 1`` boundaries delimiting each group's
    runs; the result arrays are ``(s,)`` ``int64``.
    """
    starts = group_run_bounds[:-1]
    if starts.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    lengths = run_lengths.astype(np.int64, copy=False)
    sizes = np.add.reduceat(lengths, starts)
    heights = np.maximum.reduceat(lengths, starts)
    return sizes, heights


def phase_one_stop_heights(
    run_lengths: np.ndarray,
    group_run_bounds: np.ndarray,
    sizes: np.ndarray,
    heights: np.ndarray,
    l: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every group's phase-one stopping height and removed-tuple count at once.

    Phase one removes one tuple from a (minimum) pillar of a group until the
    group is l-eligible.  Within one height level eligibility only gets
    harder (the size shrinks while the height stands still), so the shave
    can only stop right after the height drops to some ``h`` — and then the
    histogram is exactly ``min(c_v, h)``.  The shave stops at the largest
    ``h <= height`` with ``g(h) = sum_v min(c_v, h) - l * h >= 0``.  ``g``
    is concave with ``g(0) = 0``, so ``{h : g(h) >= 0}`` is an interval
    ``[0, stop]``, and one binary search over ``h`` finds ``stop`` for every
    group together: each step is one ``np.minimum`` + ``reduceat`` pass over
    the runs.  An eligible group stops at its height and loses nothing; a
    group with ``stop = 0`` is shaved away entirely.

    ``run_lengths`` and ``group_run_bounds`` are the run encoding of
    :func:`group_sizes_heights`, and ``sizes`` / ``heights`` its result.
    Returns ``(stops, removed)``, ``(s,)`` ``int64`` each, where
    ``removed = sum_v max(c_v - stop, 0)``.
    """
    if sizes.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    lengths = run_lengths.astype(np.int64, copy=False)
    starts = group_run_bounds[:-1]
    run_groups = np.repeat(
        np.arange(sizes.shape[0], dtype=np.int64), np.diff(group_run_bounds)
    )
    # Invariant: g(low) >= 0 and stop lies in [low, high].  An ineligible
    # group has g(height) < 0, so its search starts below its height.
    eligible = heights * l <= sizes
    low = np.where(eligible, heights, 0)
    high = np.where(eligible, heights, heights - 1)
    while True:
        open_ = low < high
        if not open_.any():
            break
        middle = (low + high + 1) // 2
        kept = np.add.reduceat(np.minimum(lengths, middle[run_groups]), starts)
        fits = kept >= l * middle
        low = np.where(open_ & fits, middle, low)
        high = np.where(open_ & ~fits, middle - 1, high)
    kept = np.add.reduceat(np.minimum(lengths, low[run_groups]), starts)
    return low, sizes - kept


def pillar_overlap_counts(
    pillar_run_group_ids: np.ndarray,
    pillar_run_values: np.ndarray,
    pending_values: Sequence[int],
    group_count: int,
) -> np.ndarray:
    """``|pillars(Q) ∩ pending|`` per group, for the greedy SET-COVER step.

    Operates on the *pillar runs only* (runs whose length equals their
    group's height), so one membership + ``bincount`` pass replaces the
    per-group ``pillars_view() & pending`` loop.
    """
    pending = np.asarray(sorted(pending_values), dtype=pillar_run_values.dtype)
    if pillar_run_values.shape[0] == 0 or pending.size == 0:
        return np.zeros(group_count, dtype=np.int64)
    # searchsorted membership against the (tiny, sorted) pending set beats
    # np.isin's generic path for l - 1 or fewer candidates.
    positions = np.searchsorted(pending, pillar_run_values)
    positions[positions == pending.size] = 0
    hits = pending[positions] == pillar_run_values
    return np.bincount(
        pillar_run_group_ids[hits], minlength=group_count
    ).astype(np.int64)


# -------------------------------------------------------------- sorting


def composite_codes(
    columns: np.ndarray,
    sa: np.ndarray,
    qi_sizes: Sequence[int],
    sa_size: int,
) -> np.ndarray | None:
    """Pack every row's ``(QI vector, SA code)`` into one mixed-radix int64.

    The key orders rows exactly like the lexicographic ``(QI..., SA)``
    comparison, so one radix-friendly :func:`np.argsort` over the keys
    replaces a ``d + 1``-key :func:`np.lexsort` — the dominant cost of the
    run encoding at 10^6 rows.  Returns ``None`` when the product of the
    domain sizes does not fit 62 bits (the caller falls back to lexsort);
    the paper's Table 6 domains need ~20 bits, so the fallback is
    essentially unreachable in practice.
    """
    sizes = [int(size) for size in (*qi_sizes, sa_size)]
    if math.prod(sizes) > 1 << 62:
        return None
    # Digit i weighs the product of the sizes after it, so the key is one
    # weighted row sum, a single pass over the matrix.  Every partial sum
    # stays below the product of all sizes, so the integer sums are exact.
    weights = np.cumprod(sizes[:0:-1], dtype=np.int64)[::-1]
    keys = np.einsum("ij,j->i", columns, weights, dtype=np.int64)
    keys += sa
    return keys


#: Bit budget for the packed ``key << index_bits | row`` sort words: int64
#: minus the sign bit and one guard bit.
PACKED_SORT_BITS = 62


def stable_sort_pairs(
    keys: np.ndarray, key_span: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_keys)`` for a stable sort of nonnegative int64 keys.

    ``keys`` must lie in ``[0, key_span)``.  When key and index bits
    together fit :data:`PACKED_SORT_BITS`, each row is packed into one
    int64 word ``key << index_bits | row`` and the words are *value*-sorted:
    the index bits are unique and ascend with row number, so word order is
    exactly the stable argsort order — and the sorted keys shift back out
    of the same words, so no separate gather pass runs.  ~5x faster than a
    stable argsort plus gather at 10^7 rows (a value sort has no
    indirection).  Oversized key spans fall back to that argsort-and-gather
    pair, keeping the contract total.
    """
    n = int(keys.shape[0])
    index_bits = max(int(n - 1).bit_length(), 1)
    key_bits = max(int(key_span - 1).bit_length(), 1)
    if key_bits + index_bits > PACKED_SORT_BITS:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = (keys << index_bits) | np.arange(n, dtype=np.int64)
    packed.sort()
    order = (packed & ((1 << index_bits) - 1)).astype(np.intp)
    return order, packed >> index_bits


# ------------------------------------------------------------ group reduce


def grouped_min_max(
    columns: np.ndarray, members: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group column minima/maxima over ``columns[members]`` spans.

    ``members`` concatenates the row indices of every group and ``starts``
    holds each group's offset into it (ascending, ``starts[0] == 0``).  The
    publish-stage kernel: a group's attribute survives suppression exactly
    when its min equals its max, so this one reduction pair replaces the
    per-row scan.
    """
    if starts.shape[0] == 0:
        empty = np.zeros((0, columns.shape[1]), dtype=columns.dtype)
        return empty, empty
    # np.take gathers whole rows ~3x faster than fancy indexing.
    grouped = np.take(columns, members, axis=0)
    return (
        np.minimum.reduceat(grouped, starts, axis=0),
        np.maximum.reduceat(grouped, starts, axis=0),
    )
