"""Fused, vectorized group-metric kernels for the three-phase algorithm.

The run encoding produced by :meth:`Table.qi_sa_runs_arrays` lays every
QI-group out as a contiguous span of ``(sensitive value, count)`` runs.  The
kernels here answer whole-state questions — per-group sizes and pillar
heights, phase-one stopping heights, greedy-cover overlap counts — with a
few :func:`np.add.reduceat` / :func:`np.bincount` passes over those arrays
instead of one Python loop iteration per group, and chunk the largest pass
(the phase-three assignment sweep) across a shared thread pool.  NumPy
releases the GIL inside these ops, so threads give real parallelism without
the pickling cost of processes, and integer addition is associative, so the
chunked results are bit-identical to the single-pass ones.

The kernels' pure-Python oracles are the ``*_reference`` functions next to
them, except phase one's, which lives with the per-tuple TP oracle in
``tests/tp_oracle.py``; the algorithm-level oracles are the ``*_reference``
paths the equivalence tests swap in, plus the pinned digests of
``scripts/privacy_smoke.py``.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "composite_codes",
    "group_sizes_heights",
    "grouped_min_max",
    "grouped_min_max_reference",
    "parallel_chunk_count",
    "phase_one_stop_heights",
    "pillar_overlap_counts",
    "pillar_overlap_counts_reference",
    "row_chunked",
    "stable_argsort",
    "stable_argsort_reference",
    "stable_sort_pairs",
    "take",
    "take_reference",
]

#: Runs below this length are processed on the calling thread; the pool's
#: per-task overhead only pays off on large shards.
PARALLEL_THRESHOLD = 1 << 18

#: Upper bound on kernel worker threads (the planner's process workers
#: multiply with these, so keep the pool modest).
MAX_KERNEL_THREADS = 8

#: Floor on the chunk count of the chunked sort / row-apply paths.  The
#: default of 1 means a single-worker pool never splits (splitting without
#: parallel hardware only adds merge/concat overhead); tests and tuning runs
#: raise it to force the chunked code path on any machine.
MIN_SORT_CHUNKS = 1

_POOL: ThreadPoolExecutor | None = None


def _pool() -> ThreadPoolExecutor:
    global _POOL
    if _POOL is None:
        workers = max(1, min(MAX_KERNEL_THREADS, (os.cpu_count() or 1)))
        _POOL = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-kernel"
        )
    return _POOL


def _forget_pool_in_child() -> None:
    """Drop the inherited pool in a forked child.

    ``fork`` copies the executor object but none of its threads; its idle
    bookkeeping still counts the parent's parked workers, so work submitted
    in the child would wait forever (a sharded run on a process pool forked
    from a process that already used the kernels).  The child builds its
    own pool on first use instead.
    """
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_forget_pool_in_child)


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
    group's height), so one ``isin`` + ``bincount`` pass replaces the
    per-group ``pillars_view() & pending`` loop.  Chunked across the kernel
    thread pool above :data:`PARALLEL_THRESHOLD`; the per-chunk bincounts
    are summed, which is exact for integers regardless of the split.
    """
    total_runs = pillar_run_values.shape[0]
    pending = np.asarray(sorted(pending_values), dtype=pillar_run_values.dtype)
    if total_runs == 0 or pending.size == 0:
        return np.zeros(group_count, dtype=np.int64)
    if total_runs < PARALLEL_THRESHOLD:
        return _overlap_chunk(
            pillar_run_group_ids, pillar_run_values, pending, group_count
        )
    pool = _pool()
    workers = pool._max_workers
    bounds = np.linspace(0, total_runs, workers + 1, dtype=np.int64)
    futures = [
        pool.submit(
            _overlap_chunk,
            pillar_run_group_ids[start:stop],
            pillar_run_values[start:stop],
            pending,
            group_count,
        )
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    counts = np.zeros(group_count, dtype=np.int64)
    for future in futures:
        counts += future.result()
    return counts


def _overlap_chunk(
    group_ids: np.ndarray,
    values: np.ndarray,
    pending_sorted: np.ndarray,
    group_count: int,
) -> np.ndarray:
    # searchsorted membership against the (tiny, sorted) pending set beats
    # np.isin's generic path for l - 1 or fewer candidates.
    positions = np.searchsorted(pending_sorted, values)
    positions[positions == pending_sorted.size] = 0
    hits = pending_sorted[positions] == values
    return np.bincount(group_ids[hits], minlength=group_count).astype(np.int64)


def pillar_overlap_counts_reference(
    pillar_run_group_ids: np.ndarray,
    pillar_run_values: np.ndarray,
    pending_values: Sequence[int],
    group_count: int,
) -> np.ndarray:
    """Oracle for :func:`pillar_overlap_counts` (plain Python loop)."""
    pending = set(int(value) for value in pending_values)
    counts = np.zeros(group_count, dtype=np.int64)
    for group_id, value in zip(
        pillar_run_group_ids.tolist(), pillar_run_values.tolist()
    ):
        if value in pending:
            counts[group_id] += 1
    return counts


# -------------------------------------------------------------- sorting


def composite_codes(
    columns: np.ndarray,
    sa: np.ndarray,
    qi_sizes: Sequence[int],
    sa_size: int,
    chunks: int | None = None,
) -> np.ndarray | None:
    """Pack every row's ``(QI vector, SA code)`` into one mixed-radix int64.

    The key orders rows exactly like the lexicographic ``(QI..., SA)``
    comparison, so one radix-friendly :func:`np.argsort` over the keys
    replaces a ``d + 1``-key :func:`np.lexsort` — the dominant cost of the
    run encoding at 10^6 rows.  Returns ``None`` when the product of the
    domain sizes does not fit 62 bits (the caller falls back to lexsort);
    the paper's Table 6 domains need ~20 bits, so the fallback is
    essentially unreachable in practice.

    The packing is elementwise along rows, so above
    :data:`PARALLEL_THRESHOLD` it is chunked across the kernel pool
    (NumPy's integer arithmetic releases the GIL) — bit-identical to the
    single pass by construction.
    """
    radix = 1
    for size in (*qi_sizes, sa_size):
        radix *= int(size)
        if radix > 1 << 62:
            return None
    n = int(columns.shape[0])
    if chunks is None:
        chunks = parallel_chunk_count(n)
    chunks = max(1, min(int(chunks), n)) if n else 1
    if chunks <= 1:
        return _composite_block(columns, sa, qi_sizes, sa_size)
    pool = _pool()
    bounds = np.linspace(0, n, chunks + 1, dtype=np.int64)
    futures = [
        pool.submit(
            _composite_block,
            columns[int(start) : int(stop)],
            sa[int(start) : int(stop)],
            qi_sizes,
            sa_size,
        )
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    return np.concatenate([future.result() for future in futures])


def _composite_block(
    columns: np.ndarray, sa: np.ndarray, qi_sizes: Sequence[int], sa_size: int
) -> np.ndarray:
    keys = np.zeros(columns.shape[0], dtype=np.int64)
    for position, size in enumerate(qi_sizes):
        keys *= int(size)
        keys += columns[:, position]
    keys *= int(sa_size)
    keys += sa
    return keys


def parallel_chunk_count(n: int) -> int:
    """How many chunks the pooled sort/apply paths should split ``n`` into.

    1 (no split) below :data:`PARALLEL_THRESHOLD` or on a single-worker
    pool — splitting without parallel hardware only adds merge overhead.
    :data:`MIN_SORT_CHUNKS` forces a floor for tests and tuning runs.
    """
    if n < PARALLEL_THRESHOLD:
        return 1
    return max(_pool()._max_workers, MIN_SORT_CHUNKS)


def stable_argsort(keys: np.ndarray, chunks: int | None = None) -> np.ndarray:
    """Stable argsort of an int key array, chunked across the kernel pool.

    Bit-identical to ``np.argsort(keys, kind="stable")`` by construction:
    each contiguous chunk is stably argsorted on its own pool worker, then
    sorted runs are merged pairwise with ``searchsorted(..., side="right")``
    — equal keys keep earlier-chunk (hence smaller) row indices first, which
    is exactly the stable tie-break.  ``chunks=None`` asks
    :func:`parallel_chunk_count`; the single-chunk case degenerates to the
    plain argsort with no pool round-trip.
    """
    n = int(keys.shape[0])
    if chunks is None:
        chunks = parallel_chunk_count(n)
    chunks = max(1, min(int(chunks), n)) if n else 1
    if chunks <= 1:
        return np.argsort(keys, kind="stable")
    pool = _pool()
    bounds = np.linspace(0, n, chunks + 1, dtype=np.int64)
    futures = [
        pool.submit(_chunk_stable_argsort, keys, int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    runs = [future.result() for future in futures]
    while len(runs) > 1:
        merges = [
            pool.submit(_merge_sorted_runs, keys, runs[index], runs[index + 1])
            for index in range(0, len(runs) - 1, 2)
        ]
        tail = [runs[-1]] if len(runs) % 2 else []
        runs = [future.result() for future in merges] + tail
    return runs[0]


def _chunk_stable_argsort(keys: np.ndarray, start: int, stop: int) -> np.ndarray:
    return start + np.argsort(keys[start:stop], kind="stable")


def _merge_sorted_runs(keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two key-sorted index runs; every index of ``a`` precedes ``b``'s.

    ``side="right"`` places each element of ``b`` after every equal-keyed
    element of ``a`` — ``a`` holds the earlier chunk, i.e. the smaller
    original row indices, so ties come out in ascending row order (stable).
    """
    positions = np.searchsorted(keys[a], keys[b], side="right")
    out = np.empty(a.size + b.size, dtype=a.dtype)
    b_slots = positions + np.arange(b.size, dtype=positions.dtype)
    a_mask = np.ones(out.size, dtype=bool)
    a_mask[b_slots] = False
    out[b_slots] = b
    out[a_mask] = a
    return out


def stable_argsort_reference(keys: np.ndarray) -> np.ndarray:
    """Oracle for :func:`stable_argsort`: Python's (stable) Timsort."""
    values = keys.tolist()
    return np.asarray(
        sorted(range(len(values)), key=values.__getitem__), dtype=np.intp
    )


#: Bit budget for the packed ``key << index_bits | row`` sort words: int64
#: minus the sign bit and one guard bit.
PACKED_SORT_BITS = 62


def stable_sort_pairs(
    keys: np.ndarray, key_span: int, chunks: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_keys)`` for a stable sort of nonnegative int64 keys.

    ``keys`` must lie in ``[0, key_span)``.  When key and index bits
    together fit :data:`PACKED_SORT_BITS`, each row is packed into one
    int64 word ``key << index_bits | row`` and the words are *value*-sorted:
    the index bits are unique and ascend with row number, so word order is
    exactly the stable argsort order — and the sorted keys shift back out
    of the same words, so no separate gather pass runs.  ~5x faster than
    :func:`stable_argsort` + :func:`take` at 10^7 rows (a value sort has no
    indirection).  The packing runs in pooled chunks above
    :data:`PARALLEL_THRESHOLD`; oversized key spans fall back to the
    argsort-and-gather pair, keeping the contract total.
    """
    n = int(keys.shape[0])
    index_bits = max(int(n - 1).bit_length(), 1)
    key_bits = max(int(key_span - 1).bit_length(), 1)
    if key_bits + index_bits > PACKED_SORT_BITS:
        order = stable_argsort(keys, chunks=chunks)
        return order, take(keys, order, chunks=chunks)
    if chunks is None:
        chunks = parallel_chunk_count(n)
    chunks = max(1, min(int(chunks), n)) if n else 1
    if chunks <= 1:
        packed = (keys << index_bits) | np.arange(n, dtype=np.int64)
    else:
        pool = _pool()
        bounds = np.linspace(0, n, chunks + 1, dtype=np.int64)
        packed = np.empty(n, dtype=np.int64)
        futures = [
            pool.submit(
                _pack_sort_words, keys, packed, index_bits, int(start), int(stop)
            )
            for start, stop in zip(bounds[:-1], bounds[1:])
            if stop > start
        ]
        for future in futures:
            future.result()
    packed.sort()
    order = (packed & ((1 << index_bits) - 1)).astype(np.intp)
    return order, packed >> index_bits


def _pack_sort_words(
    keys: np.ndarray, out: np.ndarray, index_bits: int, start: int, stop: int
) -> None:
    out[start:stop] = (keys[start:stop] << np.int64(index_bits)) | np.arange(
        start, stop, dtype=np.int64
    )


def row_chunked(func, matrix: np.ndarray, chunks: int | None = None) -> np.ndarray:
    """Apply a per-row (elementwise along axis 0) kernel in pooled chunks.

    ``func`` must map an ``(k, d)`` slice to a ``(k,)`` (or ``(k, ...)``)
    array depending only on the rows it is given — the chunked result is
    then the concatenation of the chunk results, bit-identical to one whole
    pass.  Used for the batch Hilbert transform, whose bit-fiddling sweeps
    release the GIL inside NumPy.
    """
    n = int(matrix.shape[0])
    if chunks is None:
        chunks = parallel_chunk_count(n)
    chunks = max(1, min(int(chunks), n)) if n else 1
    if chunks <= 1:
        return func(matrix)
    pool = _pool()
    bounds = np.linspace(0, n, chunks + 1, dtype=np.int64)
    futures = [
        pool.submit(func, matrix[int(start) : int(stop)])
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    return np.concatenate([future.result() for future in futures])


# ----------------------------------------------------- gather / group reduce


def take(values: np.ndarray, indices: np.ndarray, chunks: int | None = None) -> np.ndarray:
    """``values[indices]`` (rows for 2-D ``values``), chunked across the pool.

    The gather is elementwise in ``indices``, so each pool worker fills a
    disjoint slice of one preallocated output — bit-identical to the plain
    fancy-index and free of the concat copy.  This is the dominant
    non-sort cost of the run encoding (the ``keys[order]`` gather) and of
    publish (the ``columns[members]`` gather) at 10^7 rows.
    """
    k = int(indices.shape[0])
    if chunks is None:
        chunks = parallel_chunk_count(k)
    chunks = max(1, min(int(chunks), k)) if k else 1
    if chunks <= 1:
        return values[indices]
    out = np.empty((k,) + values.shape[1:], dtype=values.dtype)

    def fill(start: int, stop: int) -> None:
        out[start:stop] = values[indices[start:stop]]

    pool = _pool()
    bounds = np.linspace(0, k, chunks + 1, dtype=np.int64)
    futures = [
        pool.submit(fill, int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]
    for future in futures:
        future.result()
    return out


def take_reference(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Oracle for :func:`take`: one element (row) at a time."""
    return np.asarray([values[int(index)] for index in indices], dtype=values.dtype)


def grouped_min_max(
    columns: np.ndarray,
    members: np.ndarray,
    starts: np.ndarray,
    chunks: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group column minima/maxima over ``columns[members]`` spans.

    ``members`` concatenates the row indices of every group and ``starts``
    holds each group's offset into it (ascending, ``starts[0] == 0``).  The
    publish-stage kernel: a group's attribute survives suppression exactly
    when its min equals its max, so this one reduction pair replaces the
    per-row scan.  Above :data:`PARALLEL_THRESHOLD` rows the work is split
    into **group-aligned** ranges (chunk boundaries snap to group starts),
    each worker gathers and reduces its own slice, and the per-group results
    are stitched in order — bit-identical to the single pass because min/max
    over disjoint whole groups is exact.
    """
    group_count = int(starts.shape[0])
    total = int(members.shape[0])
    width = int(columns.shape[1])
    if group_count == 0:
        empty = np.zeros((0, width), dtype=columns.dtype)
        return empty, empty
    if chunks is None:
        chunks = parallel_chunk_count(total)
    chunks = max(1, min(int(chunks), group_count))
    if chunks <= 1:
        grouped = columns[members]
        return (
            np.minimum.reduceat(grouped, starts, axis=0),
            np.maximum.reduceat(grouped, starts, axis=0),
        )
    minima = np.empty((group_count, width), dtype=columns.dtype)
    maxima = np.empty((group_count, width), dtype=columns.dtype)
    # Snap ~equal-row chunk bounds to group boundaries so no group is split.
    row_bounds = np.linspace(0, total, chunks + 1, dtype=np.int64)
    group_bounds = np.unique(np.searchsorted(starts, row_bounds, side="left"))
    group_bounds[-1] = group_count

    def reduce_span(group_lo: int, group_hi: int) -> None:
        row_lo = int(starts[group_lo])
        row_hi = int(starts[group_hi]) if group_hi < group_count else total
        block = columns[members[row_lo:row_hi]]
        local_starts = starts[group_lo:group_hi] - row_lo
        minima[group_lo:group_hi] = np.minimum.reduceat(block, local_starts, axis=0)
        maxima[group_lo:group_hi] = np.maximum.reduceat(block, local_starts, axis=0)

    pool = _pool()
    futures = [
        pool.submit(reduce_span, int(lo), int(hi))
        for lo, hi in zip(group_bounds[:-1], group_bounds[1:])
        if hi > lo
    ]
    for future in futures:
        future.result()
    return minima, maxima


def grouped_min_max_reference(
    columns: np.ndarray, members: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for :func:`grouped_min_max` (plain Python loops)."""
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
