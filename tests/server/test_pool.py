"""Unit tests for the worker pool, job executor and rate limiter."""

from __future__ import annotations

import asyncio
import functools

import pytest

from repro.engine import Engine, ResultCache, RunPlan
from repro.engine.columnstore import ResultArtifact
from repro.server.jobspec import build_source
from repro.server.pool import QueueFullError, WorkerPool, execute_job
from repro.server.ratelimit import RateLimiter
from repro.service import verify_csv_l_diverse
from tests.fault_plan import FaultPlan, faulty_execute_job
from tests.render_oracle import legacy_csv, legacy_rows


class TestRateLimiter:
    def test_disabled_limiter_always_allows(self):
        limiter = RateLimiter(None)
        assert all(limiter.check("anyone") == 0.0 for _ in range(1000))

    def test_burst_then_reject_then_refill(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=2, clock=lambda: now[0])
        assert limiter.check("c") == 0.0
        assert limiter.check("c") == 0.0
        wait = limiter.check("c")
        assert wait == pytest.approx(1.0, abs=0.01)
        now[0] += wait
        assert limiter.check("c") == 0.0
        assert limiter.rejections == 1

    def test_buckets_are_per_client(self):
        limiter = RateLimiter(rate=0.001, burst=1, clock=lambda: 0.0)
        assert limiter.check("a") == 0.0
        assert limiter.check("a") > 0
        assert limiter.check("b") == 0.0

    def test_bucket_count_is_bounded(self):
        limiter = RateLimiter(rate=1.0, clock=lambda: 0.0)
        for index in range(5000):
            limiter.check(f"client-{index}")
        assert len(limiter._buckets) <= 1024

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0)
        with pytest.raises(ValueError):
            RateLimiter(rate=1.0, burst=0.5)


class TestExecuteJob:
    def _spec(self, **overrides) -> dict:
        spec = {
            "algorithm": "TP",
            "l": 4,
            "metrics": ["stars"],
            "shards": None,
            "seed": 0,
            "chunk_rows": None,
            "include_rows": True,
            "source": {"kind": "synthetic", "dataset": "SAL", "n": 200, "seed": 3,
                       "dimension": 3},
            "job_id": "job-0001",
        }
        spec.update(overrides)
        return spec

    def _oracle(self, spec):
        report = Engine(cache=ResultCache()).run(
            RunPlan(source=build_source(spec["source"]), algorithm=spec["algorithm"],
                    l=spec["l"])
        )
        return report.generalized

    @staticmethod
    def _artifact(result):
        return ResultArtifact.mmap(result["result_artifact"]["path"])

    def test_synthetic_round_trip_without_store(self, tmp_path):
        spec = self._spec()
        result = execute_job(spec, str(tmp_path / "ws"), False)
        assert result["n"] == 200
        assert result["verified"] is True
        assert result["metric_values"]["stars"] == result["stars"]
        assert "rows" not in result
        assert result["result_artifact"]["rows"] == 200
        assert result["result_artifact"]["path"] == str(tmp_path / "ws" / "results" / "job-0001")
        generalized = self._oracle(spec)
        assert (result["header"], self._artifact(result).rows()) == legacy_rows(generalized)
        assert self._artifact(result).csv_bytes() == legacy_csv(generalized)
        assert not result["store_hit"]

    def test_store_hit_across_executions(self, tmp_path):
        first = execute_job(self._spec(job_id="job-1"), str(tmp_path / "ws"), True)
        second = execute_job(self._spec(job_id="job-2"), str(tmp_path / "ws"), True)
        assert not first["store_hit"]
        assert second["store_hit"] and "cache_hit" not in second
        assert self._artifact(second).csv_bytes() == legacy_csv(self._oracle(self._spec()))

    def test_include_rows_false_omits_the_table(self, tmp_path):
        result = execute_job(
            self._spec(include_rows=False, job_id=""), str(tmp_path / "ws"), False
        )
        assert "result_artifact" not in result and "header" not in result
        assert not (tmp_path / "ws" / "results").exists()

    @pytest.mark.parametrize("job_id", [None, "", "../escape", ".hidden", "a/b"])
    def test_row_carrying_spec_needs_a_path_safe_job_id(self, tmp_path, job_id):
        spec = self._spec()
        if job_id is None:
            del spec["job_id"]
        else:
            spec["job_id"] = job_id
        with pytest.raises(ValueError, match="job_id"):
            execute_job(spec, str(tmp_path / "ws"), False)

    def test_a_legacy_result_artifact_flag_is_ignored(self, tmp_path):
        result = execute_job(self._spec(result_artifact=False), str(tmp_path / "ws"), False)
        assert "rows" not in result and result["result_artifact"]["rows"] == 200

    def test_rows_are_l_diverse_as_csv(self, tmp_path):
        result = execute_job(self._spec(), str(tmp_path / "ws"), False)
        path = tmp_path / "out.csv"
        path.write_bytes(self._artifact(result).csv_bytes())
        assert verify_csv_l_diverse(path, result["header"][:-1], result["header"][-1], 4)

    def test_build_source_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_source({"kind": "sql"})


class TestWorkerPool:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_queue_full_raises_with_retry_after(self):
        async def scenario():
            pool = WorkerPool(workers=1, queue_cap=2, executor_kind="thread")
            pool.pause()
            await pool.start()
            pool.submit("job-1", {})
            pool.submit("job-2", {})
            with pytest.raises(QueueFullError) as error:
                pool.submit("job-3", {})
            assert error.value.capacity == 2
            assert error.value.retry_after >= 1.0
            await pool.shutdown()

        self._run(scenario())

    def test_cancel_only_while_queued(self):
        async def scenario():
            pool = WorkerPool(workers=1, queue_cap=4, executor_kind="thread")
            pool.pause()
            await pool.start()
            pool.submit("job-1", {})
            assert pool.cancel("job-1") is True
            assert pool.cancel("job-1") is False  # already cancelled
            assert pool.cancel("job-9") is False  # unknown
            await pool.shutdown()

        self._run(scenario())

    def test_transitions_flow_through_callback(self, tmp_path):
        events: list[tuple[str, str]] = []

        def transition(job_id, status, result=None, error="", **kw):
            events.append((job_id, status))

        async def scenario():
            pool = WorkerPool(
                workers=1,
                queue_cap=4,
                transition=transition,
                executor_kind="thread",
                workspace_root=str(tmp_path / "ws"),
                use_store=False,
            )
            await pool.start()
            spec = {
                "algorithm": "TP",
                "l": 2,
                "source": {"kind": "synthetic", "n": 60, "dimension": 2},
            }
            pool.submit("job-1", spec)
            pool.submit("job-2", {"algorithm": "TP", "l": 2, "source": {"kind": "sql"}})
            await pool._queue.join()
            await pool.shutdown()

        self._run(scenario())
        assert ("job-1", "running") in events
        assert ("job-1", "done") in events
        assert ("job-2", "failed") in events

    def test_shutdown_reports_abandoned_jobs(self):
        async def scenario():
            pool = WorkerPool(workers=1, queue_cap=4, executor_kind="thread")
            pool.pause()
            await pool.start()
            pool.submit("job-1", {})
            pool.submit("job-2", {})
            pool.cancel("job-2")
            return await pool.shutdown(grace_seconds=0.2)

        assert self._run(scenario()) == (["job-1", "job-2"], [])

    def test_shutdown_waits_for_running_jobs_to_record(self, tmp_path):
        """An in-flight job inside the grace window still lands its 'done'."""
        events: list[tuple[str, str]] = []

        async def scenario():
            pool = WorkerPool(
                workers=1,
                queue_cap=4,
                transition=lambda job_id, status, **kw: events.append((job_id, status)),
                executor_kind="thread",
                workspace_root=str(tmp_path / "ws"),
                use_store=False,
            )
            await pool.start()
            pool.submit(
                "job-1",
                {"algorithm": "TP", "l": 2,
                 "source": {"kind": "synthetic", "n": 5000, "dimension": 2}},
            )
            while ("job-1", "running") not in events:  # drainer picked it up
                await asyncio.sleep(0.005)
            return await pool.shutdown(grace_seconds=30.0)

        abandoned, interrupted = self._run(scenario())
        assert (abandoned, interrupted) == ([], [])
        assert ("job-1", "done") in events

    def test_shutdown_reports_jobs_that_outlive_the_grace_window(self, tmp_path):
        """A run still in flight when the grace window closes is 'interrupted'.

        Regression: cancelling the drainers unwinds their ``finally:
        self._running.discard(...)`` blocks, so a snapshot taken *after* the
        cancellation always read an empty set and such jobs were reported in
        neither list — leaving them 'running' in the ledger forever.
        """
        events: list[tuple[str, str]] = []

        # Wedge the worker with a delay fault so the run reliably outlives the
        # grace window — the engine is fast enough that a plain job can finish
        # inside it.
        plan = FaultPlan(delay_seconds=1.0, delay_seeds=(777,))

        async def scenario():
            pool = WorkerPool(
                workers=1,
                queue_cap=4,
                transition=lambda job_id, status, **kw: events.append((job_id, status)),
                executor_kind="thread",
                workspace_root=str(tmp_path / "ws"),
                use_store=False,
                run_job=functools.partial(faulty_execute_job, plan),
            )
            await pool.start()
            pool.submit(
                "job-slow",
                {"algorithm": "TP", "l": 2, "seed": 777,
                 "source": {"kind": "synthetic", "n": 30_000, "dimension": 3}},
            )
            while ("job-slow", "running") not in events:
                await asyncio.sleep(0.005)
            return await pool.shutdown(grace_seconds=0.01)

        abandoned, interrupted = self._run(scenario())
        assert abandoned == []
        assert interrupted == ["job-slow"]
        # its drainer was cancelled, so no terminal transition was recorded
        assert ("job-slow", "done") not in events

    def test_async_transition_callbacks_are_awaited(self, tmp_path):
        events: list[tuple[str, str]] = []

        async def transition(job_id, status, result=None, error="", **kw):
            await asyncio.sleep(0)
            events.append((job_id, status))

        async def scenario():
            pool = WorkerPool(
                workers=1,
                queue_cap=4,
                transition=transition,
                executor_kind="thread",
                workspace_root=str(tmp_path / "ws"),
                use_store=False,
            )
            await pool.start()
            pool.submit(
                "job-1",
                {"algorithm": "TP", "l": 2,
                 "source": {"kind": "synthetic", "n": 60, "dimension": 2}},
            )
            await pool._queue.join()
            await pool.shutdown()

        self._run(scenario())
        assert events == [("job-1", "running"), ("job-1", "done")]

    def test_drainer_survives_a_raising_transition_callback(self, tmp_path):
        """A callback blowing up (e.g. disk-full ledger append) must not kill
        the drainer — with workers=1 the server would accept jobs forever and
        run none of them."""
        events: list[tuple[str, str]] = []

        def transition(job_id, status, result=None, error="", **kw):
            if job_id == "job-bad":
                raise OSError("no space left on device")
            events.append((job_id, status))

        async def scenario():
            pool = WorkerPool(
                workers=1,
                queue_cap=4,
                transition=transition,
                executor_kind="thread",
                workspace_root=str(tmp_path / "ws"),
                use_store=False,
            )
            await pool.start()
            spec = {"algorithm": "TP", "l": 2,
                    "source": {"kind": "synthetic", "n": 60, "dimension": 2}}
            pool.submit("job-bad", spec)
            pool.submit("job-good", spec)
            await pool._queue.join()
            errors = pool.metrics.get("repro_pool_callback_errors_total").total()
            await pool.shutdown()
            return errors

        assert self._run(scenario()) == 2  # running + done both raised
        assert ("job-good", "done") in events

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(queue_cap=0)
        with pytest.raises(ValueError):
            WorkerPool(executor_kind="fiber")
