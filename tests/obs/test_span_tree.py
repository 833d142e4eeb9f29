"""The measured span tree: recorder semantics, engine tree invariants,
isolation of concurrent runs and measured job seconds.

Tree invariants (checked by :func:`assert_sound` on every tree below):

* every child lies inside its parent's interval;
* the children of a span sum to at most the span, except under the shard
  fan-out (``fanout`` attribute), whose shards run concurrently;
* the root is within 1% of the wall time the caller measured.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import time
from collections import Counter

import pytest

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.dataset.table import Table
from repro.engine import CsvSource, Engine, ResultCache, RunPlan, TableSource
from repro.obs import trace
from repro.obs.trace import Span
from repro.server.pool import WorkerPool, execute_job
from repro.service import JobService, Workspace

#: Float slack for interval comparisons on one shared clock.
EPS = 1e-6
#: Spans that only group others; their self time is not charged to a layer.
STRUCTURAL = {"run", "anonymize", "shards"}


def assert_sound(root: Span) -> None:
    for span in root.walk():
        for child in span.children:
            assert child.parent == span.name
            assert child.start >= span.start - EPS, (child.name, span.name)
            assert child.end <= span.end + EPS, (child.name, span.name)
        if not span.attributes.get("fanout"):
            total = sum(child.seconds for child in span.children)
            assert total <= span.seconds + EPS, span.name


def attributed_seconds(root: Span) -> float:
    """Wall time during which some non-structural span was open."""
    covered, cursor = 0.0, float("-inf")
    for start, end in sorted(
        (span.start, span.end) for span in root.walk() if span.name not in STRUCTURAL
    ):
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def fresh(table: Table) -> Table:
    """A copy without cached grouping, so its run encodes from scratch."""
    return Table(table.schema, table.qi_rows, table.sa_values)


def timed_run(engine: Engine, plan: RunPlan):
    started = time.perf_counter()
    report = engine.run(plan)
    return report, time.perf_counter() - started


@pytest.fixture(autouse=True)
def frozen_heap():
    """Keep the collector off the test runner's own heap.

    Late in a full run the process holds every earlier test's objects, and
    one full collection inside a timed run (a store hit's JSON decode
    triggers them) would time the runner, not the run.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


@pytest.fixture(scope="module")
def census_10k() -> Table:
    return make_sal(10_000, seed=5, config=CensusConfig.scaled(0.24))


class TestRecorder:
    def test_span_outside_a_tree_records_nothing(self):
        with trace.span("orphan") as span:
            assert span is None

    def test_spans_nest_under_the_current_span(self):
        with trace.record("root", kind="unit") as root:
            with trace.span("outer") as outer:
                with trace.span("inner", rows=3):
                    time.sleep(0.002)
            with trace.span("second"):
                pass
        assert root.attributes == {"kind": "unit"}
        assert [child.name for child in root.children] == ["outer", "second"]
        assert outer.children[0].name == "inner"
        assert outer.children[0].attributes == {"rows": 3}
        assert outer.children[0].seconds >= 0.002
        assert root.find("inner") is outer.children[0]
        assert root.total("inner") == outer.children[0].seconds
        assert_sound(root)

    def test_a_raising_block_still_closes_its_span(self):
        with trace.record("root") as root:
            with pytest.raises(RuntimeError):
                with trace.span("fails"):
                    time.sleep(0.001)
                    raise RuntimeError("boom")
            with trace.span("after"):
                pass
        assert [child.name for child in root.children] == ["fails", "after"]
        assert root.children[0].seconds >= 0.001
        assert_sound(root)

    def test_record_is_detached_and_graft_attaches(self):
        with trace.record("parent") as parent:
            with trace.record("detached") as detached:
                with trace.span("work"):
                    pass
            assert parent.children == []
            trace.graft(detached)
        assert parent.children == [detached]
        assert detached.parent == "parent"
        assert detached.find("work") is not None
        assert_sound(parent)

    def test_graft_outside_a_tree_is_a_noop(self):
        orphan = Span("orphan")
        trace.graft(orphan)
        assert orphan.parent is None

    def test_now_reads_the_tree_clock(self):
        with trace.record("root") as root:
            inside = trace.now()
        assert root.start <= inside <= root.end

    def test_threads_build_their_own_trees(self):
        names = "abcdefgh"  # more threads than cores
        barrier = threading.Barrier(len(names))
        roots: dict[str, Span] = {}

        def work(name: str) -> None:
            with trace.record(name) as root:
                barrier.wait()
                for _ in range(200):
                    with trace.span(f"{name}-step"):
                        with trace.span(f"{name}-inner"):
                            pass
            roots[name] = root

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for name, root in roots.items():
            assert {child.name for child in root.children} == {f"{name}-step"}
            assert len(root.children) == 200
            assert all(
                [inner.name for inner in child.children] == [f"{name}-inner"]
                for child in root.children
            )
            assert_sound(root)


class TestEngineTree:
    @pytest.mark.parametrize("algorithm", ["TP", "TP+", "Mondrian"])
    @pytest.mark.parametrize(
        "shards,workers", [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)]
    )
    def test_tree_invariants_on_miss_and_hit(
        self, census_10k, algorithm, shards, workers, tmp_path
    ):
        from repro.service.store import RunStore

        engine = Engine(cache=ResultCache(store=RunStore(tmp_path / "runs")))
        plan = RunPlan(
            source=TableSource(fresh(census_10k)),
            algorithm=algorithm,
            l=4,
            shards=shards,
            workers=workers,
            metrics=("stars",),
        )
        miss, miss_wall = timed_run(engine, plan)
        hit, hit_wall = timed_run(engine, plan)
        assert not miss.store_hit and hit.store_hit
        for report, wall in ((miss, miss_wall), (hit, hit_wall)):
            root = report.trace
            assert_sound(root)
            assert root.name == "run" and root.parent is None
            assert root.seconds <= wall
            assert [child.name for child in root.children] == [
                "load", "plan", "anonymize", "verify", "metrics",
            ]
        # Hits on this small table take a few milliseconds, where 1% is below
        # the cost of the call itself; the next test checks hits at scale.
        assert miss.seconds >= 0.99 * miss_wall
        # A hit replays the miss's compute cost but measures its own time.
        assert hit.anonymize_seconds == miss.anonymize_seconds
        assert hit.trace.find("anonymize").attributes["tier"] == "store"
        assert hit.trace.find("shard") is None
        effective = len(miss.shard_sizes)
        if effective > 1:
            fanout = miss.trace.find("shards")
            assert fanout.attributes["fanout"] is True
            shard_spans = [c for c in fanout.children if c.name == "shard"]
            assert sorted(s.attributes["rows"] for s in shard_spans) == sorted(
                miss.shard_sizes
            )
            for name in ("split", "merge"):
                assert miss.trace.find(name).parent == "anonymize"
            if algorithm != "Mondrian":
                for span in shard_spans:
                    assert span.find("phase1") is not None

    def test_root_is_within_one_percent_of_wall_on_miss_and_hit(self, tmp_path):
        from repro.service.store import RunStore

        table = make_sal(100_000, seed=7, config=CensusConfig.scaled(0.24))
        plan = RunPlan(source=TableSource(table), algorithm="TP+", l=6, shards=1)
        path = tmp_path / "runs"
        # A fresh engine per run: the second one is a (cross-process style)
        # store hit, long enough for 1% to exceed the call overhead.
        for tier in (None, "store"):
            engine = Engine(cache=ResultCache(store=RunStore(path)))
            report, wall = timed_run(engine, plan)
            assert report.trace.find("anonymize").attributes["tier"] == tier
            assert wall * 0.99 <= report.seconds <= wall
            assert_sound(report.trace)

    def test_unsharded_tp_plus_stages_keep_their_names(self, census_10k):
        report = Engine(cache=ResultCache()).run(
            RunPlan(source=TableSource(fresh(census_10k)), algorithm="TP+", l=4, shards=1)
        )
        anonymize = report.trace.find("anonymize")
        names = [child.name for child in anonymize.children]
        # A storeless engine caches nothing, so it opens no cache spans.
        assert names[0] == "encode"
        assert {"state-init", "phase1", "publish"} <= set(names)
        assert not {"cache-lookup", "cache-put"} & set(names)
        encode = anonymize.children[0]
        assert {child.name for child in encode.children} >= {"pack", "sort"}
        assert report.trace.find("publish").find("min-max") is not None

    def test_csv_load_splits_into_parse_and_remap(self, census_10k, tmp_path):
        path = tmp_path / "census.csv"
        census_10k.to_csv(str(path))
        qi, sa = list(census_10k.schema.qi_names), census_10k.schema.sensitive.name
        plan = RunPlan(source=CsvSource(str(path), tuple(qi), sa), algorithm="TP+", l=4, shards=1)
        report, wall = timed_run(Engine(cache=ResultCache()), plan)
        assert_sound(report.trace)
        assert wall * 0.99 <= report.seconds <= wall
        # A served CSV job's tree shows the same split under its load.
        served = execute_job({
            "algorithm": "TP+", "l": 4, "shards": 1, "include_rows": False,
            "source": {"kind": "csv", "path": str(path), "qi": qi, "sa": sa},
        }, str(tmp_path / "ws"), False)["trace"]
        assert_sound(served)
        for root in (report.trace, served):
            load = root.find("load")
            assert [child.name for child in load.children] == ["parse", "remap"]
            assert load.find("parse").seconds > load.find("remap").seconds

    def test_sharded_pooled_run_attributes_its_wall_time(self):
        table = make_sal(100_000, seed=7, config=CensusConfig.scaled(0.24))
        plan = RunPlan(
            source=TableSource(table), algorithm="TP+", l=6,
            shards=2, workers=2, use_cache=False,
        )
        report, wall = timed_run(Engine(cache=ResultCache()), plan)
        root = report.trace
        assert_sound(root)
        assert root.seconds >= wall * 0.99
        assert attributed_seconds(root) >= 0.95 * wall
        fanout = root.find("shards")
        assert {child.name for child in fanout.children} == {
            "pool-start", "shard", "pool-stop",
        }
        for shard in (child for child in fanout.children if child.name == "shard"):
            assert shard.children[0].name == "dispatch"
            assert shard.find("phase1") is not None


class TestConcurrentRuns:
    def _names(self, root: Span) -> Counter:
        return Counter(span.name for span in root.walk())

    def test_two_engine_runs_on_threads_keep_separate_trees(self, census_10k):
        big = make_sal(40_000, seed=9, config=CensusConfig.scaled(0.24))
        tables = {"big": big, "small": census_10k}
        solo = {
            name: Engine(cache=ResultCache()).run(
                RunPlan(source=TableSource(fresh(table)), algorithm="TP+", l=4, shards=1)
            ).trace
            for name, table in tables.items()
        }
        barrier = threading.Barrier(2)
        outcome: dict[str, tuple] = {}

        def work(name: str) -> None:
            plan = RunPlan(
                source=TableSource(fresh(tables[name])), algorithm="TP+", l=4, shards=1
            )
            engine = Engine(cache=ResultCache())
            barrier.wait()
            outcome[name] = timed_run(engine, plan)

        threads = [threading.Thread(target=work, args=(name,)) for name in tables]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for name, (report, wall) in outcome.items():
            root = report.trace
            assert root.attributes["n"] == len(tables[name])
            assert self._names(root) == self._names(solo[name])
            assert sum(child.seconds for child in root.children) <= wall
            assert_sound(root)

    def test_two_jobs_on_a_thread_pool_keep_separate_trees(self, tmp_path):
        sizes = {"job-big": 30_000, "job-small": 3_000}
        results: dict[str, dict] = {}
        started: dict[str, float] = {}
        walls: dict[str, float] = {}

        def transition(job_id, status, result=None, error="", **_):
            if status == "running":
                started[job_id] = time.perf_counter()
            elif status in ("done", "failed"):
                walls[job_id] = time.perf_counter() - started[job_id]
                results[job_id] = result or {"error": error}

        async def scenario() -> None:
            pool = WorkerPool(
                workers=2, queue_cap=4, transition=transition,
                executor_kind="thread", workspace_root=str(tmp_path / "ws"),
                use_store=False,
            )
            await pool.start()
            for job_id, n in sizes.items():
                pool.submit(job_id, {
                    "algorithm": "TP+", "l": 4, "shards": 1, "include_rows": False,
                    "source": {"kind": "synthetic", "n": n, "seed": 3, "dimension": 4},
                })
            deadline = time.monotonic() + 60
            while len(results) < len(sizes) and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            await pool.shutdown()

        asyncio.run(scenario())
        assert set(results) == set(sizes)
        for job_id, n in sizes.items():
            root = results[job_id]["trace"]
            assert root.name == "job"
            run = root.find("run")
            assert run.attributes["n"] == n
            assert Counter(span.name for span in root.walk())["encode"] == 1
            assert sum(child.seconds for child in run.children) <= walls[job_id]
            assert root.seconds <= walls[job_id]
            assert results[job_id]["seconds"] == run.seconds
            assert_sound(root)


class TestMeasuredSeconds:
    SPEC = {
        "algorithm": "TP+", "l": 4, "shards": 1, "include_rows": False,
        "source": {"kind": "synthetic", "n": 20_000, "seed": 3, "dimension": 4},
    }

    def test_store_hit_job_reports_its_own_seconds(self, tmp_path):
        workspace = str(tmp_path / "ws")
        miss = execute_job(dict(self.SPEC), workspace, True)
        started = time.perf_counter()
        hit = execute_job(dict(self.SPEC), workspace, True)
        wall = time.perf_counter() - started
        assert not miss["store_hit"] and hit["store_hit"]
        assert hit["seconds"] < miss["seconds"]
        assert hit["seconds"] <= wall
        anonymize = hit["trace"].find("anonymize")
        assert anonymize.attributes["tier"] == "store"
        assert anonymize.seconds < anonymize.attributes["compute_seconds"]

    def test_store_hit_job_record_reports_its_own_seconds(self, tmp_path):
        workspace = Workspace(tmp_path / "ws")
        table = make_sal(20_000, seed=3, config=CensusConfig.scaled(0.24))

        def plan() -> RunPlan:
            return RunPlan(source=TableSource(fresh(table), "t"), algorithm="TP+", l=4)

        miss, _ = JobService(workspace).submit(plan())
        started = time.perf_counter()
        hit, report = JobService(workspace).submit(plan())
        wall = time.perf_counter() - started
        assert not miss.store_hit and hit.store_hit
        assert hit.seconds == report.seconds
        assert hit.seconds < miss.seconds
        assert hit.seconds <= wall
