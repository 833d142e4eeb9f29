"""Property tests: the fused kernels against their pure-Python oracles."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import kernels
from tests.kernel_oracles import (
    grouped_min_max_reference,
    pillar_overlap_counts_reference,
    stable_argsort_reference,
)
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
    oracle = pillar_overlap_counts_reference(ids, vals, pending, group_count)
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


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 20) - 1),
            st.integers(min_value=0, max_value=(1 << 21) - 1),
            st.integers(min_value=0, max_value=(1 << 21) - 1),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_composite_codes_are_exact_at_the_62_bit_limit(rows):
    qi_sizes, sa_size = [1 << 20, 1 << 21], 1 << 21
    # int32 codes, as a Table stores them.
    columns = np.asarray([row[:2] for row in rows], dtype=np.int32)
    sa = np.asarray([row[2] for row in rows], dtype=np.int32)
    keys = kernels.composite_codes(columns, sa, qi_sizes, sa_size)
    expected = [(a * qi_sizes[1] + b) * sa_size + s for a, b, s in rows]
    assert keys.tolist() == expected


def test_composite_codes_refuses_oversized_domains():
    columns = np.zeros((2, 1), dtype=np.int64)
    sa = np.zeros(2, dtype=np.int64)
    assert kernels.composite_codes(columns, sa, [1 << 40], 1 << 40) is None


# ------------------------------------------------------- stable sort pairs


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=50))
def test_stable_sort_pairs_matches_argsort_and_gather(values):
    keys = np.asarray(values, dtype=np.int64)
    order, sorted_keys = kernels.stable_sort_pairs(keys, 31)
    expected = stable_argsort_reference(keys)
    assert order.tolist() == expected.tolist()
    assert sorted_keys.tolist() == keys[expected].tolist()


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=50))
def test_stable_sort_pairs_oversized_span_falls_back_identically(values):
    # A key span past the packed-word budget must take the argsort+gather
    # fallback and still honour the exact same contract.
    keys = np.asarray(values, dtype=np.int64)
    order, sorted_keys = kernels.stable_sort_pairs(keys, 1 << 62)
    expected = stable_argsort_reference(keys)
    assert order.tolist() == expected.tolist()
    assert sorted_keys.tolist() == keys[expected].tolist()


def test_stable_sort_pairs_empty():
    order, sorted_keys = kernels.stable_sort_pairs(np.asarray([], dtype=np.int64), 5)
    assert order.tolist() == []
    assert sorted_keys.tolist() == []


# ------------------------------------------------------------ group reduce


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


@given(grouped_reduce_cases())
def test_grouped_min_max_matches_reference(case):
    columns, members, starts = case
    fast_min, fast_max = kernels.grouped_min_max(columns, members, starts)
    oracle_min, oracle_max = grouped_min_max_reference(columns, members, starts)
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

_WARM_RUN_THEN_SHARD = textwrap.dedent(
    """
    from repro.dataset.synthetic import make_sal
    from repro.engine import Engine
    from repro.engine.cache import ResultCache

    engine = Engine(cache=ResultCache())
    engine.run_table(make_sal(4000, seed=7), "TP+", 4, shards=1, workers=1, use_cache=False)
    report = engine.run_table(
        make_sal(4000, seed=7), "TP+", 4, shards=2, workers=2, use_cache=False
    )
    assert len(report.shard_sizes) == 2
    """
)


def test_sharded_process_pool_after_warm_kernel_pool():
    """A sharded run forked from a process that already ran the engine finishes.

    Forked shard workers once inherited a kernel thread pool without its
    threads and waited forever on their first submit.  Runs in its own
    session so a hang can be killed with its workers.
    """
    process = subprocess.Popen(
        [sys.executable, "-c", _WARM_RUN_THEN_SHARD], env=_child_env(), start_new_session=True
    )
    try:
        assert process.wait(timeout=60) == 0
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise AssertionError("sharded run deadlocked in a forked shard worker") from None


_THREADS_AROUND_A_LARGE_RUN = textwrap.dedent(
    """
    import threading
    from repro.dataset.synthetic import make_sal
    from repro.engine import Engine
    from repro.engine.cache import ResultCache

    table = make_sal(300_000, seed=7)
    before = threading.active_count()
    Engine(cache=ResultCache()).run_table(
        table, "TP+", 6, shards=1, workers=1, use_cache=False
    )
    after = threading.active_count()
    assert after == before, (before, after)
    """
)


def test_unsharded_run_past_2_18_rows_starts_no_threads():
    """An in-process run over more than 2^18 rows stays on the calling thread.

    A fresh interpreter, so no earlier test has already started a thread
    that the run could reuse.
    """
    result = subprocess.run(
        [sys.executable, "-c", _THREADS_AROUND_A_LARGE_RUN],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _child_env() -> dict[str, str]:
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
