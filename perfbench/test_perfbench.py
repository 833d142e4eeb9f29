"""Tests of the benchmark's own span recorder, metric math and output checks."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from inproc import save_published
from inputs import make_table, table_meta
from layers import layer_values
from oracle import CheckError, check_arrays, check_csv, check_published_dir
from pins import PinError, Pins, code_version
from recorder import (
    OpTally,
    Recorder,
    Span,
    process_age_seconds,
    root_matches_wall,
    tail_percentile,
    tree_problems,
)
from serving import BIG, CYCLE, plan_jobs


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def recorded_tree(clock: FakeClock) -> Recorder:
    rec = Recorder(clock=clock)
    with rec.span("run"):
        with rec.span("op"):
            clock.now += 1.0
            with rec.span("convert"):
                clock.now += 2.0
            with rec.span("render"):
                clock.now += 3.0
        clock.now += 0.5
    return rec


def test_nested_spans_form_one_tree_and_children_fit_their_parent():
    rec = recorded_tree(FakeClock())
    assert rec.root.name == "run"
    (op,) = rec.root.children
    assert [child.name for child in op.children] == ["convert", "render"]
    assert tree_problems(rec.root) == []
    assert sum(child.seconds for child in op.children) <= op.seconds


def test_children_summing_past_their_parent_are_reported():
    parent = Span("op", 0.0)
    parent.end = 1.0
    for start in (0.0, 0.4):
        child = Span("layer", start)
        child.end = start + 0.6
        parent.children.append(child)
    assert any("sum to" in problem for problem in tree_problems(parent))


def test_child_outside_its_parent_is_reported():
    parent = Span("op", 1.0)
    parent.end = 2.0
    child = Span("layer", 0.5)
    child.end = 1.5
    parent.children.append(child)
    assert any("outside" in problem for problem in tree_problems(parent))


def test_self_time_is_duration_minus_children():
    rec = recorded_tree(FakeClock())
    op = rec.root.children[0]
    assert op.seconds == pytest.approx(6.0)
    assert op.self_seconds() == pytest.approx(1.0)
    assert rec.root.self_seconds() == pytest.approx(0.5)


def test_concurrent_lanes_may_overlap_and_self_time_counts_their_union():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    with rec.span("run"):
        with rec.span("load", lanes=True) as load:
            lane_a = Span("client-0", 0.0)
            lane_b = Span("client-1", 1.0)
            lane_a.end, lane_b.end = 3.0, 4.0
            load.children.extend([lane_a, lane_b])
            clock.now = 5.0
    assert tree_problems(rec.root) == []
    assert load.self_seconds() == pytest.approx(1.0)  # union 0..4 of a 5 s span


def test_spans_from_threads_nest_under_the_given_parent():
    rec = Recorder()
    with rec.span("run"):
        with rec.span("load", lanes=True) as load:

            def lane(index: int) -> None:
                with rec.span(f"client-{index}", parent=load):
                    with rec.span("op"):
                        pass

            threads = [threading.Thread(target=lane, args=(index,)) for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
    assert sorted(child.name for child in load.children) == ["client-0", "client-1"]
    assert all([span.name for span in client.children] == ["op"] for client in load.children)
    assert tree_problems(rec.root) == []


def test_root_within_one_percent_of_wall_time():
    rec = recorded_tree(FakeClock())
    assert rec.root.seconds == pytest.approx(6.5)
    assert root_matches_wall(rec.root, 6.5 * 1.009)
    assert not root_matches_wall(rec.root, 6.5 * 1.02)


def test_process_age_is_a_wall_clock_of_its_own():
    first = process_age_seconds()
    started = time.perf_counter()
    time.sleep(0.3)
    slept = time.perf_counter() - started
    assert first > 0
    assert process_age_seconds() - first == pytest.approx(slept, abs=0.05)


def test_disabled_recorder_records_nothing():
    rec = Recorder(enabled=False)
    with rec.span("run") as span:
        assert span is None
    assert rec.root is None and rec.tree() is None


@pytest.mark.parametrize(
    "count, percent, reported",
    [(99, 90, False), (100, 90, True), (19, 50, False), (20, 50, True), (999, 99, False)],
)
def test_percentile_needs_ten_samples_beyond_it(count, percent, reported):
    values = [float(value) for value in range(1, count + 1)]
    result = tail_percentile(values, percent)
    assert (result is not None) == reported
    if reported:
        assert sum(value > result for value in values) >= 10


def test_p90_of_a_hundred_samples_is_the_ninetieth():
    assert tail_percentile([float(value) for value in range(100, 0, -1)], 90) == 90.0


def test_layer_values_take_medians_per_layer_and_per_op():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    with rec.span("run"):
        for op, seconds, phase in (("tp-l4", 1.0, 1), ("tp-l4", 3.0, 2), ("tp-l10", 5.0, 2)):
            with rec.span("planner.decide", shards=2 if op == "tp-l10" else 1):
                clock.now += 0.5
            with rec.span("core.anonymize", op=op, phase=phase):
                clock.now += seconds
        with rec.span("sinks.write", bytes=4 << 20):
            clock.now += 2.0
    values = layer_values(rec)
    assert values["core.anonymize_s.tp-l4"] == pytest.approx(2.0)
    assert values["core.anonymize_s.tp-l10"] == pytest.approx(5.0)
    assert values["core.phase_reached.tp-l4"] == 2
    assert values["planner.decide_s"] == pytest.approx(0.5)
    assert values["planner.shards"] == pytest.approx(4 / 3)
    assert values["sinks.mb_per_s"] == pytest.approx(2.0)
    assert values["sharding.shards"] == 0


def test_error_rate_counts_timed_out_ops_in_its_denominator():
    tally = OpTally()
    tally.passed, tally.failed, tally.timed_out = 7, 1, 2
    assert tally.attempted == 10
    assert tally.error_rate == pytest.approx(0.3)
    assert tally.success_rate == pytest.approx(0.7)
    only_timeouts = OpTally()
    only_timeouts.timed_out = 3
    assert only_timeouts.error_rate == 1.0


HEADER = ["A", "B", "S"]
META = {"rows": 4, "header": HEADER, "sa_counts": {"x": 2, "y": 2}}


def test_csv_check_counts_stars_of_a_diverse_table():
    text = "A,B,S\r\na1,*,x\r\na1,*,y\r\n*,*,x\r\n*,*,y\r\n"
    assert check_csv(text, META, 2) == 6


@pytest.mark.parametrize(
    "text, message",
    [
        ("A,B,S\na1,b1,x\na1,b1,x\n*,*,y\n*,*,y\n", "2-diverse"),
        ("A,B,S\n*,*,x\n*,*,y\n*,*,x\n", "published rows"),
        ("A,B,S\n*,*,x\n*,*,x\n*,*,x\n*,*,y\n", "multiset"),
        ("A,C,S\n*,*,x\n*,*,y\n*,*,x\n*,*,y\n", "header"),
    ],
)
def test_csv_check_rejects_wrong_outputs(text, message):
    with pytest.raises(CheckError, match=message):
        check_csv(text, META, 2)


def test_array_check_groups_by_published_cells():
    qi = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    sa = np.array([0, 1, 0, 1])
    suppress_b = np.array([[0, -1], [0, -1], [1, -1], [1, -1]])
    assert check_arrays(qi, sa, suppress_b, sa, 2) == 4
    with pytest.raises(CheckError, match="2-diverse"):
        check_arrays(qi, sa, qi, sa, 2)
    with pytest.raises(CheckError, match="sensitive value"):
        check_arrays(qi, sa, suppress_b, np.array([1, 0, 0, 1]), 2)


def test_array_check_compares_unsuppressed_cells_with_the_input():
    qi = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    sa = np.array([0, 1, 0, 1])
    miscoded = np.array([[-1, 0], [-1, 0], [-1, 1], [-1, 1]])  # B published as 0,0,1,1
    with pytest.raises(CheckError, match="unsuppressed cells differ"):
        check_arrays(qi, sa, miscoded, sa, 2)


@pytest.fixture(scope="module")
def small_input():
    table = make_table(400, seed=5)
    codes = {"qi": table.qi_columns.astype(np.int16), "sa": table.sa_array}
    return table, table_meta(table), codes


def test_saved_tables_pass_the_check_in_both_published_forms(small_input, tmp_path):
    from repro.dataset import GeneralizedTable, Partition

    table, meta, codes = small_input
    columnar = GeneralizedTable.from_partition(table, Partition.single_group(len(table)))
    row_cells = GeneralizedTable(table.schema, columnar.cell_rows, table.sa_values, [0] * len(table))
    assert columnar.columnar_publish() is not None and row_cells.columnar_publish() is None
    for index, generalized in enumerate((columnar, row_cells)):
        save_published(generalized, tmp_path / f"published-{index}")
        stars = check_published_dir(tmp_path / f"published-{index}", meta, codes, 2)
        assert stars == generalized.star_count() > 0


def test_a_permuted_published_table_fails_the_check(small_input, tmp_path):
    from repro.dataset import GeneralizedTable

    table, meta, codes = small_input
    # Every row published as itself (no stars), but two rows swapped.
    cells = [tuple(row) for row in table.qi_columns.tolist()]
    sa = list(table.sa_values)
    swap = next(row for row in range(1, len(table)) if cells[row] != cells[0])
    cells[0], cells[swap] = cells[swap], cells[0]
    sa[0], sa[swap] = sa[swap], sa[0]
    permuted = GeneralizedTable(table.schema, cells, sa, list(range(len(table))))
    save_published(permuted, tmp_path / "published")
    with pytest.raises(CheckError, match="differ|sensitive value"):
        check_published_dir(tmp_path / "published", meta, codes, 1)


def test_pins_hold_stars_across_runs(tmp_path):
    pins = Pins(tmp_path / "pins.json")
    pins.check("op", 5)
    pins.save()
    reloaded = Pins(tmp_path / "pins.json")
    reloaded.check("op", 5)
    with pytest.raises(PinError, match="pinned at 5"):
        reloaded.check("op", 6)


def test_code_version_follows_the_source_but_not_byte_caches(tmp_path):
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "BENCH_scale.json").write_text("{}")
    version = code_version(tmp_path)
    (tmp_path / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"cache")
    assert code_version(tmp_path) == version
    (tmp_path / "BENCH_scale.json").write_text('{"n": 1}')
    assert code_version(tmp_path) != version
    (tmp_path / "BENCH_scale.json").write_text("{}")
    (tmp_path / "src" / "pkg" / "mod.py").write_text("x = 2\n")
    assert code_version(tmp_path) != version


@pytest.mark.parametrize("client", [0, 1])
def test_serving_plan_mixes_one_big_job_in_eight_and_one_repeat_in_four(client):
    jobs = plan_jobs(seed=3, client=client, cycles=4)
    assert len(jobs) == 4 * CYCLE
    assert sum(job.kind == BIG[0] for job in jobs) == 4
    assert sum(job.repeat for job in jobs) == len(jobs) // 4
    seen = set()
    for job in jobs:
        assert job.repeat == (job.key in seen)
        seen.add(job.key)
    assert plan_jobs(seed=3, client=client, cycles=4) == jobs
