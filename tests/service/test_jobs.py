"""Tests for the job service: submission, ledger lifecycle, cross-process reuse."""

from __future__ import annotations

import json

import pytest

from repro.engine import RunPlan, TableSource
from repro.errors import IneligibleTableError
from repro.service import JobLedger, JobService, JobStateError, Workspace


def _service(tmp_path) -> JobService:
    return JobService(Workspace(tmp_path / "workspace"))


def _plan(table, **fields) -> RunPlan:
    fields.setdefault("algorithm", "TP")
    fields.setdefault("l", 2)
    return RunPlan(source=TableSource(table, "t"), **fields)


class TestSubmit:
    def test_submit_records_a_done_job(self, hospital, tmp_path):
        service = _service(tmp_path)
        record, report = service.submit(_plan(hospital))
        assert record.status == "done"
        assert record.id == "job-0001"
        assert record.n == len(hospital)
        assert record.stars == report.generalized.star_count()
        assert record.shards == 1 and record.workers == 1
        assert service.get("job-0001") == record

    def test_submit_exports_through_the_sink(self, hospital, tmp_path):
        import csv

        output = str(tmp_path / "published.csv")
        record, _report = _service(tmp_path).submit(_plan(hospital), output=output)
        assert record.output == output
        with open(output, newline="") as handle:
            assert len(list(csv.DictReader(handle))) == len(hospital)

    def test_second_submission_is_served_from_the_store(self, hospital, tmp_path):
        workspace = Workspace(tmp_path / "workspace")
        first_record, _ = JobService(workspace).submit(_plan(hospital))
        # A brand-new service = fresh process: only the JSONL store persists.
        second_record, second_report = JobService(workspace).submit(_plan(hospital))
        assert not first_record.store_hit
        assert second_record.store_hit
        assert second_report.store_hit
        assert second_record.stars == first_record.stars

    def test_failed_submission_is_recorded_and_reraised(self, hospital, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(IneligibleTableError):
            service.submit(_plan(hospital, l=len(hospital) + 1))
        records = service.list()
        assert len(records) == 1
        assert records[0].status == "failed"
        assert "IneligibleTableError" in records[0].error


class TestLedger:
    def test_list_orders_and_numbers_jobs(self, hospital, tmp_path):
        service = _service(tmp_path)
        service.submit(_plan(hospital, algorithm="TP"))
        service.submit(_plan(hospital, algorithm="Hilbert"))
        records = service.list()
        assert [record.id for record in records] == ["job-0001", "job-0002"]
        assert [record.algorithm for record in records] == ["TP", "Hilbert"]

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(KeyError):
            _service(tmp_path).get("job-9999")

    def test_corrupt_ledger_lines_are_skipped(self, hospital, tmp_path):
        service = _service(tmp_path)
        service.submit(_plan(hospital))
        with open(service.workspace.jobs_path, "a") as handle:
            handle.write("{torn record\n")
            handle.write(json.dumps({"unexpected": "shape"}) + "\n")
        assert [record.id for record in service.list()] == ["job-0001"]

    def test_summary_row_reports_cache_tier(self, hospital, tmp_path):
        workspace = Workspace(tmp_path / "workspace")
        JobService(workspace).submit(_plan(hospital))
        record, _ = JobService(workspace).submit(_plan(hospital))
        assert record.summary_row()[7] == "store"


class TestLifecycle:
    def _ledger(self, tmp_path) -> JobLedger:
        return JobLedger(tmp_path / "workspace" / "jobs.jsonl")

    def test_submit_persists_the_full_transition_history(self, hospital, tmp_path):
        service = _service(tmp_path)
        record, _ = service.submit(_plan(hospital))
        history = service.ledger.history(record.id)
        assert [entry.status for entry in history] == ["queued", "running", "done"]
        assert history[-1].updated >= history[0].updated
        assert history[0].created == history[-1].created

    def test_failed_submission_history(self, hospital, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(IneligibleTableError):
            service.submit(_plan(hospital, l=len(hospital) + 1))
        (record,) = service.list()
        statuses = [entry.status for entry in service.ledger.history(record.id)]
        assert statuses == ["queued", "running", "failed"]

    def test_cancel_queued_job(self, tmp_path):
        ledger = self._ledger(tmp_path)
        record = ledger.create(label="t", algorithm="TP", l=2)
        cancelled = ledger.cancel(record.id)
        assert cancelled.status == "cancelled"
        assert ledger.get(record.id).status == "cancelled"

    def test_cancel_running_job(self, tmp_path):
        ledger = self._ledger(tmp_path)
        record = ledger.create(label="t", algorithm="TP", l=2)
        ledger.transition(record.id, "running")
        assert ledger.cancel(record.id).status == "cancelled"

    def test_cancel_terminal_job_raises(self, hospital, tmp_path):
        service = _service(tmp_path)
        record, _ = service.submit(_plan(hospital))
        with pytest.raises(JobStateError, match="done"):
            service.cancel(record.id)

    def test_illegal_transitions_raise(self, tmp_path):
        ledger = self._ledger(tmp_path)
        record = ledger.create(label="t", algorithm="TP", l=2)
        with pytest.raises(JobStateError):
            ledger.transition(record.id, "done")  # queued -> done skips running
        ledger.transition(record.id, "running")
        ledger.transition(record.id, "done")
        with pytest.raises(JobStateError):
            ledger.transition(record.id, "running")  # terminal states are final
        with pytest.raises(JobStateError):
            ledger.transition(record.id, "resurrected")

    def test_transition_of_unknown_job_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            self._ledger(tmp_path).transition("job-9999", "running")

    def test_cancel_unknown_job_via_service(self, tmp_path):
        with pytest.raises(KeyError):
            _service(tmp_path).cancel("job-9999")


class TestRetryLifecycle:
    def _ledger(self, tmp_path) -> JobLedger:
        return JobLedger(tmp_path / "jobs.jsonl")

    def test_running_jobs_can_enter_and_leave_retrying(self, tmp_path):
        ledger = self._ledger(tmp_path)
        record = ledger.create(label="t", algorithm="TP", l=2, max_attempts=3)
        ledger.transition(record.id, "running", attempts=1)
        parked = ledger.transition(
            record.id, "retrying", attempts=1, last_error="WorkerCrashError: died"
        )
        assert parked.status == "retrying"
        assert parked.last_error == "WorkerCrashError: died"
        resumed = ledger.transition(record.id, "running", attempts=2)
        assert resumed.attempts == 2
        done = ledger.transition(record.id, "done", attempts=2)
        assert done.attempts == 2
        statuses = [entry.status for entry in ledger.history(record.id)]
        assert statuses == ["queued", "running", "retrying", "running", "done"]

    def test_retrying_is_cancellable_but_not_from_queued(self, tmp_path):
        ledger = self._ledger(tmp_path)
        record = ledger.create(label="t", algorithm="TP", l=2)
        with pytest.raises(JobStateError):
            ledger.transition(record.id, "retrying")  # queued jobs never ran
        ledger.transition(record.id, "running")
        ledger.transition(record.id, "retrying")
        assert ledger.cancel(record.id).status == "cancelled"

    def test_quarantine_lands_as_terminal_failed(self, tmp_path):
        ledger = self._ledger(tmp_path)
        record = ledger.create(label="t", algorithm="TP", l=2, max_attempts=2)
        ledger.transition(record.id, "running", attempts=1)
        ledger.transition(record.id, "retrying", attempts=1, last_error="crash")
        ledger.transition(record.id, "running", attempts=2)
        final = ledger.transition(
            record.id,
            "failed",
            attempts=2,
            quarantined=True,
            error="quarantined after 2 attempts; last error: crash",
        )
        assert final.is_terminal() and final.quarantined
        with pytest.raises(JobStateError):
            ledger.transition(record.id, "retrying")

    def test_legacy_records_read_with_zeroed_retry_fields(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        payload = {
            "id": "job-0001", "created": 1.0, "status": "done", "label": "t",
            "algorithm": "TP", "l": 2,
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(payload) + "\n")
        record = JobLedger(path).get("job-0001")
        assert record.attempts == 0
        assert record.max_attempts == 0
        assert record.last_error == ""
        assert record.quarantined is False
        assert record.spec == {}


class TestCompaction:
    def test_compact_keeps_one_latest_record_per_job(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        first = ledger.create(label="a", algorithm="TP", l=2)
        ledger.transition(first.id, "running")
        ledger.transition(first.id, "done", seconds=1.0)
        second = ledger.create(label="b", algorithm="TP", l=2)
        reclaimed = ledger.compact()
        assert reclaimed == 2  # first's queued + running lines superseded
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert ledger.get(first.id).status == "done"
        assert ledger.get(second.id).status == "queued"
        # ids keep allocating above the compacted survivors
        assert ledger.create(label="c", algorithm="TP", l=2).id == "job-0003"

    def test_compact_reclaims_corrupt_lines(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.create(label="a", algorithm="TP", l=2)
        with open(path, "a") as handle:
            handle.write("{torn\n")
        assert ledger.compact() == 1
        assert len(path.read_text().strip().splitlines()) == 1

    def test_compact_on_an_already_minimal_ledger_rewrites_nothing(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.create(label="a", algorithm="TP", l=2)
        before = path.stat().st_mtime_ns
        assert ledger.compact() == 0
        assert path.stat().st_mtime_ns == before

    def test_compact_missing_file_is_a_noop(self, tmp_path):
        assert JobLedger(tmp_path / "jobs.jsonl").compact() == 0

    def test_history_is_truncated_by_compaction(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        record = ledger.create(label="a", algorithm="TP", l=2)
        ledger.transition(record.id, "running")
        ledger.transition(record.id, "done")
        ledger.compact()
        assert [r.status for r in ledger.history(record.id)] == ["done"]


class TestLedgerDurability:
    def test_ids_continue_after_gaps(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        first = ledger.create(label="a", algorithm="TP", l=2)
        second = ledger.create(label="b", algorithm="TP", l=2)
        assert [first.id, second.id] == ["job-0001", "job-0002"]
        # ids are allocated above the max seen, even with transitions appended
        ledger.transition(first.id, "running")
        assert ledger.create(label="c", algorithm="TP", l=2).id == "job-0003"

    def test_malformed_records_are_counted_and_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        record = ledger.create(label="a", algorithm="TP", l=2)
        with open(path, "a") as handle:
            handle.write("{torn\n")  # torn JSON
            handle.write(json.dumps({"id": "job-x", "status": "exploded"}) + "\n")
            handle.write(json.dumps({"status": "done", "created": 0.0}) + "\n")  # no id
            handle.write(json.dumps(["not", "an", "object"]) + "\n")
        assert [entry.id for entry in ledger.list()] == [record.id]
        assert ledger.recovered == 4

    def test_unknown_keys_from_newer_writers_are_dropped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        payload = {
            "id": "job-0001", "created": 1.0, "status": "done", "label": "t",
            "algorithm": "TP", "l": 2, "some_future_field": {"x": 1},
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(payload) + "\n")
        record = ledger.get("job-0001")
        assert record.status == "done"
        assert not hasattr(record, "some_future_field")

    def test_concurrent_creates_allocate_distinct_ids(self, tmp_path):
        """Two processes racing create() must never hand out the same id."""
        import multiprocessing

        path = tmp_path / "jobs.jsonl"
        with multiprocessing.Pool(4) as pool:
            ids = pool.map(_create_one, [str(path)] * 12)
        assert len(set(ids)) == 12

    def test_shared_instance_is_thread_safe(self, tmp_path):
        """Threads sharing one ledger (the server's executor offload) can't
        corrupt the incremental replay: flock only serializes processes, and
        get()/list() never took it at all."""
        import threading

        ledger = JobLedger(tmp_path / "jobs.jsonl")
        ids = [ledger.create(label="t", algorithm="TP", l=2).id for _ in range(8)]
        errors: list[BaseException] = []

        def writer(job_id: str) -> None:
            try:
                ledger.transition(job_id, "running")
                ledger.transition(job_id, "done", seconds=0.1)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        def reader() -> None:
            try:
                for _ in range(200):
                    ledger.list()
                    for job_id in ids:
                        ledger.get(job_id)
            except BaseException as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(job_id,)) for job_id in ids]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []
        assert {record.status for record in ledger.list()} == {"done"}
        assert len(ledger.list()) == len(ids)


def _create_one(path: str) -> str:
    ledger = JobLedger(path)
    return ledger.create(label="race", algorithm="TP", l=2).id
