"""Property tests: the fused kernels against their pure-Python oracles."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from tests.tp_oracle import phase_one_stop_height_reference


# --------------------------------------------------------------------- sizes


@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6),
        min_size=0,
        max_size=8,
    )
)
def test_group_sizes_heights_match_python(groups_runs):
    run_lengths = np.asarray(
        [length for runs in groups_runs for length in runs], dtype=np.int64
    )
    bounds = np.cumsum([0] + [len(runs) for runs in groups_runs])
    sizes, heights = kernels.group_sizes_heights(run_lengths, bounds)
    assert sizes.tolist() == [sum(runs) for runs in groups_runs]
    assert heights.tolist() == [max(runs) for runs in groups_runs]


# --------------------------------------------------------------- phase one


#: Histograms of one group: single values, ties at the top (several equal
#: large counts), and more or fewer distinct values than ``l``.
_HISTOGRAMS = st.one_of(
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=1),
    st.integers(min_value=1, max_value=9).flatmap(
        lambda top: st.tuples(
            st.lists(st.just(top), min_size=2, max_size=5),
            st.lists(st.integers(min_value=1, max_value=top), max_size=5),
        ).map(lambda parts: parts[0] + parts[1])
    ),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=10),
)


@given(st.lists(_HISTOGRAMS, min_size=1, max_size=8), st.integers(min_value=2, max_value=12))
def test_phase_one_stop_heights_match_the_one_at_a_time_shave(histograms, l):
    """Every group of one encoding, eligible or not, against the simulation;
    ``l`` often exceeds a group's distinct-value count (shaved away)."""
    run_lengths = np.asarray([c for counts in histograms for c in counts], dtype=np.int64)
    bounds = np.cumsum([0] + [len(counts) for counts in histograms])
    sizes, heights = kernels.group_sizes_heights(run_lengths, bounds)
    stops, removed = kernels.phase_one_stop_heights(run_lengths, bounds, sizes, heights, l)
    expected = [phase_one_stop_height_reference(counts, l) for counts in histograms]
    assert list(zip(stops.tolist(), removed.tolist())) == expected


def test_phase_one_stop_heights_of_an_empty_encoding():
    empty = np.zeros(0, dtype=np.int64)
    stops, removed = kernels.phase_one_stop_heights(
        empty, np.zeros(1, dtype=np.int64), empty, empty, 3
    )
    assert stops.tolist() == [] and removed.tolist() == []


# ------------------------------------------------------------ overlap counts


@st.composite
def overlap_cases(draw):
    group_count = draw(st.integers(min_value=1, max_value=10))
    runs = draw(st.integers(min_value=0, max_value=60))
    group_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=group_count - 1),
            min_size=runs,
            max_size=runs,
        )
    )
    values = draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=runs, max_size=runs)
    )
    pending = draw(st.frozensets(st.integers(min_value=0, max_value=12), max_size=6))
    return group_count, group_ids, values, pending


@given(overlap_cases())
def test_pillar_overlap_counts_match_python(case):
    group_count, group_ids, values, pending = case
    ids = np.asarray(group_ids, dtype=np.intp)
    vals = np.asarray(values, dtype=np.int32)
    fast = kernels.pillar_overlap_counts(ids, vals, pending, group_count)
    oracle = kernels.pillar_overlap_counts_reference(ids, vals, pending, group_count)
    assert fast.tolist() == oracle.tolist()


@settings(max_examples=25)
@given(case=overlap_cases())
def test_pillar_overlap_counts_parallel_path_is_exact(case):
    # Force the thread-pool chunked path even for tiny inputs; per-chunk
    # bincount addition must reproduce the single-pass result exactly.
    group_count, group_ids, values, pending = case
    ids = np.asarray(group_ids, dtype=np.intp)
    vals = np.asarray(values, dtype=np.int32)
    saved = kernels.PARALLEL_THRESHOLD
    kernels.PARALLEL_THRESHOLD = 1
    try:
        fast = kernels.pillar_overlap_counts(ids, vals, pending, group_count)
    finally:
        kernels.PARALLEL_THRESHOLD = saved
    oracle = kernels.pillar_overlap_counts_reference(ids, vals, pending, group_count)
    assert fast.tolist() == oracle.tolist()


# ---------------------------------------------------------- composite codes


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=0,
        max_size=30,
    )
)
def test_composite_codes_order_matches_lexsort(rows):
    columns = np.asarray([row[:2] for row in rows], dtype=np.int64).reshape(len(rows), 2)
    sa = np.asarray([row[2] for row in rows], dtype=np.int64)
    keys = kernels.composite_codes(columns, sa, [5, 3], 6)
    assert keys is not None
    by_key = np.argsort(keys, kind="stable")
    by_lexsort = np.lexsort((sa, columns[:, 1], columns[:, 0]))
    assert by_key.tolist() == by_lexsort.tolist()


def test_composite_codes_refuses_oversized_domains():
    columns = np.zeros((2, 1), dtype=np.int64)
    sa = np.zeros(2, dtype=np.int64)
    assert kernels.composite_codes(columns, sa, [1 << 40], 1 << 40) is None


# ------------------------------------------------------------ stable argsort


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=60),
    st.integers(min_value=1, max_value=7),
)
def test_stable_argsort_chunked_matches_reference(values, chunks):
    keys = np.asarray(values, dtype=np.int64)
    fast = kernels.stable_argsort(keys, chunks=chunks)
    assert fast.tolist() == kernels.stable_argsort_reference(keys).tolist()


@settings(max_examples=25)
@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=40))
def test_stable_argsort_default_chunking_under_forced_parallelism(values):
    keys = np.asarray(values, dtype=np.int64)
    saved_threshold = kernels.PARALLEL_THRESHOLD
    saved_chunks = kernels.MIN_SORT_CHUNKS
    kernels.PARALLEL_THRESHOLD = 1
    kernels.MIN_SORT_CHUNKS = 4
    try:
        fast = kernels.stable_argsort(keys)
    finally:
        kernels.PARALLEL_THRESHOLD = saved_threshold
        kernels.MIN_SORT_CHUNKS = saved_chunks
    assert fast.tolist() == kernels.stable_argsort_reference(keys).tolist()


def test_stable_argsort_empty():
    assert kernels.stable_argsort(np.asarray([], dtype=np.int64)).tolist() == []


# --------------------------------------------------------------- row_chunked


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
        max_size=50,
    ),
    st.integers(min_value=1, max_value=6),
)
def test_row_chunked_concatenation_is_bit_identical(rows, chunks):
    matrix = np.asarray(rows, dtype=np.int64).reshape(len(rows), 2)
    whole = matrix.sum(axis=1) * 3 + matrix[:, 0]
    chunked = kernels.row_chunked(
        lambda chunk: chunk.sum(axis=1) * 3 + chunk[:, 0], matrix, chunks=chunks
    )
    assert chunked.tolist() == whole.tolist()


# ------------------------------------------------------- stable sort pairs


@given(
    st.lists(st.integers(min_value=0, max_value=30), max_size=50),
    st.integers(min_value=1, max_value=7),
)
def test_stable_sort_pairs_matches_argsort_and_gather(values, chunks):
    keys = np.asarray(values, dtype=np.int64)
    order, sorted_keys = kernels.stable_sort_pairs(keys, 31, chunks=chunks)
    expected = kernels.stable_argsort_reference(keys)
    assert order.tolist() == expected.tolist()
    assert sorted_keys.tolist() == keys[expected].tolist()


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=50))
def test_stable_sort_pairs_oversized_span_falls_back_identically(values):
    # A key span past the packed-word budget must take the argsort+gather
    # fallback and still honour the exact same contract.
    keys = np.asarray(values, dtype=np.int64)
    order, sorted_keys = kernels.stable_sort_pairs(keys, 1 << 62)
    expected = kernels.stable_argsort_reference(keys)
    assert order.tolist() == expected.tolist()
    assert sorted_keys.tolist() == keys[expected].tolist()


@settings(max_examples=25)
@given(st.lists(st.integers(min_value=0, max_value=9), max_size=40))
def test_stable_sort_pairs_forced_chunked_packing_is_exact(values):
    keys = np.asarray(values, dtype=np.int64)
    saved_threshold = kernels.PARALLEL_THRESHOLD
    saved_chunks = kernels.MIN_SORT_CHUNKS
    kernels.PARALLEL_THRESHOLD = 1
    kernels.MIN_SORT_CHUNKS = 4
    try:
        order, sorted_keys = kernels.stable_sort_pairs(keys, 10)
    finally:
        kernels.PARALLEL_THRESHOLD = saved_threshold
        kernels.MIN_SORT_CHUNKS = saved_chunks
    expected = kernels.stable_argsort_reference(keys)
    assert order.tolist() == expected.tolist()
    assert sorted_keys.tolist() == keys[expected].tolist()


def test_stable_sort_pairs_empty():
    order, sorted_keys = kernels.stable_sort_pairs(np.asarray([], dtype=np.int64), 5)
    assert order.tolist() == []
    assert sorted_keys.tolist() == []


# ----------------------------------------------------- gather / group reduce


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=30),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=40),
    st.integers(min_value=1, max_value=7),
)
def test_take_chunked_matches_reference(values, picks, chunks):
    source = np.asarray(values, dtype=np.int64)
    indices = np.asarray([pick % len(values) for pick in picks], dtype=np.intp)
    fast = kernels.take(source, indices, chunks=chunks)
    assert fast.tolist() == kernels.take_reference(source, indices).tolist()


@settings(max_examples=25)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=20,
    ),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=25),
)
def test_take_rows_under_forced_parallelism(rows, picks):
    matrix = np.asarray(rows, dtype=np.int64)
    indices = np.asarray([pick % len(rows) for pick in picks], dtype=np.intp)
    saved_threshold = kernels.PARALLEL_THRESHOLD
    saved_chunks = kernels.MIN_SORT_CHUNKS
    kernels.PARALLEL_THRESHOLD = 1
    kernels.MIN_SORT_CHUNKS = 4
    try:
        fast = kernels.take(matrix, indices)
    finally:
        kernels.PARALLEL_THRESHOLD = saved_threshold
        kernels.MIN_SORT_CHUNKS = saved_chunks
    assert fast.tolist() == kernels.take_reference(matrix, indices).tolist()


def test_take_empty_indices():
    source = np.asarray([[1, 2], [3, 4]], dtype=np.int64)
    assert kernels.take(source, np.asarray([], dtype=np.intp)).tolist() == []


@st.composite
def grouped_reduce_cases(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=5), max_size=8))
    n = sum(sizes)
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=9), min_size=n * width, max_size=n * width
        )
    )
    columns = np.asarray(flat, dtype=np.int64).reshape(n, width)
    members = np.asarray(draw(st.permutations(range(n))), dtype=np.intp)
    starts = np.cumsum([0] + sizes)[:-1].astype(np.int64)
    return columns, members, starts


@given(grouped_reduce_cases(), st.integers(min_value=1, max_value=5))
def test_grouped_min_max_chunked_matches_reference(case, chunks):
    columns, members, starts = case
    fast_min, fast_max = kernels.grouped_min_max(columns, members, starts, chunks=chunks)
    oracle_min, oracle_max = kernels.grouped_min_max_reference(columns, members, starts)
    assert fast_min.tolist() == oracle_min.tolist()
    assert fast_max.tolist() == oracle_max.tolist()


@settings(max_examples=25)
@given(grouped_reduce_cases())
def test_grouped_min_max_under_forced_parallelism(case):
    columns, members, starts = case
    saved_threshold = kernels.PARALLEL_THRESHOLD
    saved_chunks = kernels.MIN_SORT_CHUNKS
    kernels.PARALLEL_THRESHOLD = 1
    kernels.MIN_SORT_CHUNKS = 4
    try:
        fast_min, fast_max = kernels.grouped_min_max(columns, members, starts)
    finally:
        kernels.PARALLEL_THRESHOLD = saved_threshold
        kernels.MIN_SORT_CHUNKS = saved_chunks
    oracle_min, oracle_max = kernels.grouped_min_max_reference(columns, members, starts)
    assert fast_min.tolist() == oracle_min.tolist()
    assert fast_max.tolist() == oracle_max.tolist()


def test_grouped_min_max_no_groups():
    columns = np.zeros((0, 2), dtype=np.int64)
    empty = np.asarray([], dtype=np.intp)
    minima, maxima = kernels.grouped_min_max(columns, empty, np.asarray([], dtype=np.int64))
    assert minima.shape == (0, 2) and maxima.shape == (0, 2)


def test_grouped_min_max_single_group_is_whole_table_reduction():
    columns = np.asarray([[3, 1], [2, 5], [3, 0]], dtype=np.int64)
    members = np.asarray([2, 0, 1], dtype=np.intp)
    starts = np.asarray([0], dtype=np.int64)
    minima, maxima = kernels.grouped_min_max(columns, members, starts)
    assert minima.tolist() == [[2, 0]]
    assert maxima.tolist() == [[3, 5]]


# ------------------------------------------------------------- fork safety

_WARM_POOL_THEN_SHARD = textwrap.dedent(
    """
    import time
    from repro.core import kernels
    from repro.dataset.synthetic import make_sal
    from repro.engine import Engine
    from repro.engine.cache import ResultCache

    kernels.PARALLEL_THRESHOLD = 1
    kernels.MIN_SORT_CHUNKS = 2
    for _ in range(4):
        kernels._pool().submit(int).result()
    time.sleep(0.2)  # let the warmed threads park as idle
    report = Engine(cache=ResultCache()).run_table(
        make_sal(4000, seed=7), "TP+", 4, shards=2, workers=2, use_cache=False
    )
    assert len(report.shard_sizes) == 2
    """
)


def test_sharded_process_pool_after_warm_kernel_pool():
    """A forked shard worker must not inherit the parent's kernel pool.

    The child got the executor object without its threads; with the parent's
    workers parked as idle, the child's first kernel submit waited forever.
    Runs in its own session so a hang can be killed with its workers.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    process = subprocess.Popen(
        [sys.executable, "-c", _WARM_POOL_THEN_SHARD], env=env, start_new_session=True
    )
    try:
        assert process.wait(timeout=60) == 0
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise AssertionError("sharded run deadlocked in a forked shard worker") from None
