"""Handler tests over a loopback server: lifecycle, validation, backpressure."""

from __future__ import annotations

import csv
import functools
import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.client import Client, ClientError, JobFailedError
from repro.privacy.spec import EntropyLDiversity, KAnonymity, privacy_registry
from repro.service import JobLedger, verify_csv_l_diverse

from server_harness import ServerHandle
from tests.fault_plan import FaultPlan, faulty_execute_job
from tests.server.test_telemetry import parse_exposition, sample


def _submit_hospital(client: Client, hospital_rows, **fields) -> str:
    rows, qi, sa = hospital_rows
    fields.setdefault("l", 2)
    fields.setdefault("algorithm", "TP")
    return client.submit(rows=rows, qi=qi, sa=sa, **fields)


class TestLifecycle:
    def test_submit_wait_result_roundtrip(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        record, result = client.submit_and_wait(
            rows=rows, qi=qi, sa=sa, l=2, algorithm="TP", metrics=["kl"]
        )
        assert record["status"] == "done"
        assert record["n"] == len(rows)
        assert result["verified"] is True
        assert result["header"] == qi + [sa]
        assert len(result["rows"]) == len(rows)
        assert "kl" in result["metric_values"]
        # the sensitive column must survive as a multiset
        assert sorted(row[-1] for row in result["rows"]) == sorted(
            row[sa] for row in rows
        )

    def test_result_as_csv_is_l_diverse(self, client, hospital_rows, tmp_path):
        job_id = _submit_hospital(client, hospital_rows)
        client.wait(job_id)
        text = client.result_csv(job_id)
        path = tmp_path / "published.csv"
        path.write_text(text)
        _rows, qi, sa = hospital_rows
        assert verify_csv_l_diverse(path, qi, sa, 2)

    def test_repeated_submission_hits_the_store(self, client, hospital_rows):
        first = _submit_hospital(client, hospital_rows)
        client.wait(first)
        assert client.result(first)["store_hit"] is False
        second = _submit_hospital(client, hospital_rows)
        client.wait(second)
        assert second != first
        assert client.result(second)["store_hit"] is True

    def test_served_job_record_carries_the_store_hit_flag(self, client, hospital_rows):
        first = client.wait(_submit_hospital(client, hospital_rows))
        second_id = _submit_hospital(client, hospital_rows)
        client.wait(second_id)
        second = client.status(second_id)
        assert (first["store_hit"], second["store_hit"]) == (False, True)
        assert "cache_hit" not in first and "cache_hit" not in second
        assert {job["id"]: job["store_hit"] for job in client.jobs()} == {
            first["id"]: False, second_id: True,
        }

    def test_lifecycle_is_persisted_to_the_ledger(self, server, client, hospital_rows):
        job_id = _submit_hospital(client, hospital_rows)
        client.wait(job_id)
        ledger = JobLedger(server.server.workspace.jobs_path)
        statuses = [record.status for record in ledger.history(job_id)]
        assert statuses == ["queued", "running", "done"]

    def test_synthetic_source_job(self, client):
        record, result = client.submit_and_wait(
            source={"kind": "synthetic", "dataset": "SAL", "n": 300, "dimension": 3},
            l=4,
        )
        assert record["label"] == "SAL-3@300"
        assert result["n"] == 300

    def test_csv_upload_job(self, client):
        text = "Age,Gender,Disease\n" + "\n".join(
            f"{20 + i % 4},{'MF'[i % 2]},D{i % 3}" for i in range(24)
        )
        record, result = client.submit_and_wait(
            csv_text=text, qi=["Age", "Gender"], sa="Disease", l=2
        )
        assert record["status"] == "done"
        assert result["n"] == 24

    def test_ineligible_table_fails_the_job(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        job_id = client.submit(rows=rows, qi=qi, sa=sa, l=len(rows) + 1)
        with pytest.raises(JobFailedError) as info:
            client.wait(job_id)
        assert info.value.record["status"] == "failed"
        assert "IneligibleTableError" in info.value.record["error"]
        # a failed job has no result
        with pytest.raises(ClientError) as error:
            client.result(job_id)
        assert error.value.status == 409

    def test_job_metrics_endpoint_excludes_rows(self, client, hospital_rows):
        job_id = _submit_hospital(client, hospital_rows, metrics=["stars"])
        client.wait(job_id)
        payload = client.job_metrics(job_id)
        assert "rows" not in payload and "header" not in payload
        assert payload["metric_values"]["stars"] == payload["stars"]

    def test_metrics_only_job_skips_the_table(self, client, hospital_rows):
        """include_rows=false: the table is never rendered/kept; /result says so."""
        job_id = _submit_hospital(
            client, hospital_rows, metrics=["stars"], include_rows=False
        )
        client.wait(job_id)
        payload = client.job_metrics(job_id)
        assert payload["metric_values"]["stars"] == payload["stars"]
        with pytest.raises(ClientError) as error:
            client.result(job_id)
        assert error.value.status == 409
        assert "include_rows" in error.value.message
        # the submit_and_wait helper knows to fetch /metrics instead
        rows, qi, sa = hospital_rows
        record, payload = client.submit_and_wait(
            rows=rows, qi=qi, sa=sa, l=2, algorithm="TP", include_rows=False
        )
        assert record["status"] == "done"
        assert "rows" not in payload and "header" not in payload

    def test_jobs_listing_contains_submissions(self, client, hospital_rows):
        job_id = _submit_hospital(client, hospital_rows)
        client.wait(job_id)
        assert job_id in [job["id"] for job in client.jobs()]


class TestValidation:
    def _raw_post(self, server, body: bytes, content_type="application/json", path="/v1/jobs"):
        request = urllib.request.Request(
            server.base_url + path,
            data=body,
            headers={"Content-Type": content_type},
            method="POST",
        )
        return urllib.request.urlopen(request, timeout=10)

    def test_bad_json_is_400(self, server):
        for body in (b"{not json", b"[" * 200_000):
            with pytest.raises(urllib.error.HTTPError) as error:
                self._raw_post(server, body)
            assert error.value.code == 400
            assert "JSON" in json.loads(error.value.read())["error"]
        # The CSV upload's JSON-valued privacy parameter goes through the
        # same parser; nesting past the recursion limit is still a 400.
        with pytest.raises(urllib.error.HTTPError) as error:
            self._raw_post(
                server,
                b"Age,Disease\n30,flu\n",
                content_type="text/csv",
                path="/v1/jobs?qi=Age&sa=Disease&privacy=" + "[" * 2_700,
            )
        assert error.value.code == 400
        assert "JSON" in json.loads(error.value.read())["error"]

    def test_non_object_json_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            self._raw_post(server, b"[1, 2]")
        assert error.value.code == 400

    def test_unknown_algorithm_is_400(self, client, hospital_rows):
        with pytest.raises(ClientError) as error:
            _submit_hospital(client, hospital_rows, algorithm="NoSuch")
        assert error.value.status == 400
        assert "unknown algorithm" in error.value.message

    def test_unknown_metric_is_400(self, client, hospital_rows):
        with pytest.raises(ClientError) as error:
            _submit_hospital(client, hospital_rows, metrics=["nope"])
        assert error.value.status == 400

    def test_l_below_two_is_400(self, client, hospital_rows):
        with pytest.raises(ClientError) as error:
            _submit_hospital(client, hospital_rows, l=1)
        assert error.value.status == 400

    def test_rows_and_source_together_is_400(self, server, hospital_rows):
        rows, qi, sa = hospital_rows
        body = json.dumps(
            {"rows": rows, "qi": qi, "sa": sa, "l": 2, "source": {"kind": "synthetic"}}
        ).encode()
        with pytest.raises(urllib.error.HTTPError) as error:
            self._raw_post(server, body)
        assert error.value.code == 400
        assert "exactly one" in json.loads(error.value.read())["error"]

    def test_missing_qi_is_400(self, client, hospital_rows):
        rows, _qi, sa = hospital_rows
        with pytest.raises(ClientError) as error:
            client.submit(rows=rows, qi=[], sa=sa, l=2)
        assert error.value.status == 400

    def test_sa_overlapping_qi_is_400(self, client, hospital_rows):
        rows, qi, _sa = hospital_rows
        with pytest.raises(ClientError) as error:
            client.submit(rows=rows, qi=qi, sa=qi[0], l=2)
        assert error.value.status == 400

    def test_unknown_source_kind_is_400(self, client):
        with pytest.raises(ClientError) as error:
            client.submit(source={"kind": "sql"}, l=2)
        assert error.value.status == 400

    def test_non_integer_seed_is_400_not_500(self, server, hospital_rows):
        rows, qi, sa = hospital_rows
        for payload in (
            {"rows": rows, "qi": qi, "sa": sa, "l": 2, "seed": "abc"},
            {"source": {"kind": "synthetic", "seed": "abc"}, "l": 2},
            {"source": {"kind": "synthetic", "n": "many"}, "l": 2},
        ):
            with pytest.raises(urllib.error.HTTPError) as error:
                self._raw_post(server, json.dumps(payload).encode())
            assert error.value.code == 400, payload

    @pytest.mark.parametrize("algorithm", [["TP"], {"a": 1}, "NoSuch"])
    def test_unknown_or_non_string_algorithm_is_400_on_both_routes(self, server, algorithm):
        for path, payload in (
            ("/v1/jobs", {"source": {"kind": "synthetic", "n": 50}, "l": 2}),
            ("/v1/plan", {"n": 100, "l": 2}),
        ):
            body = json.dumps({**payload, "algorithm": algorithm}).encode()
            with pytest.raises(urllib.error.HTTPError) as error:
                self._raw_post(server, body, path=path)
            assert error.value.code == 400, path
            message = json.loads(error.value.read())["error"]
            assert "unknown algorithm" in message and "'TP+'" in message, path

    def test_negative_synthetic_seed_is_400(self, server):
        payload = {"l": 2, "source": {"kind": "synthetic", "n": 200, "seed": -1}}
        with pytest.raises(urllib.error.HTTPError) as error:
            self._raw_post(server, json.dumps(payload).encode())
        assert error.value.code == 400
        assert "'seed' must be >= 0" in json.loads(error.value.read())["error"]

    def test_csv_upload_include_rows_takes_boolean_spellings_only(self, server):
        body = b"Age,Disease\n30,flu\n31,cold\n"
        path = "/v1/jobs?qi=Age&sa=Disease&l=2&include_rows="
        for flag in ("off", "ture", "2"):
            with pytest.raises(urllib.error.HTTPError) as error:
                self._raw_post(server, body, "text/csv", path + flag)
            assert error.value.code == 400, flag
        ledger = server.server.jobs.ledger
        for flag, expected in (("No", False), ("TRUE", True), ("0", False), ("yes", True)):
            with self._raw_post(server, body, "text/csv", path + flag) as response:
                job_id = json.loads(response.read())["id"]
            assert ledger.get(job_id).spec["include_rows"] is expected, flag

    def test_backend_field_is_ignored_like_any_unknown_field(
        self, server, client, hospital_rows
    ):
        rows, qi, sa = hospital_rows
        for extra in ({"backend": "reference"}, {"backend": "fortran"}, {"colour": "blue"}):
            payload = {"rows": rows, "qi": qi, "sa": sa, "l": 2, "algorithm": "TP", **extra}
            with self._raw_post(server, json.dumps(payload).encode()) as response:
                job_id = json.loads(response.read())["id"]
            record = client.wait(job_id)
            assert record["status"] == "done", extra
            assert "backend" not in record

    def test_csv_upload_missing_column_is_400(self, client):
        with pytest.raises(ClientError) as error:
            client.submit(csv_text="Age,Disease\n30,flu\n", qi=["Zip"], sa="Disease", l=2)
        assert error.value.status == 400
        assert "missing columns" in error.value.message

    def test_unsharded_algorithm_with_shards_is_400(self, server, monkeypatch):
        """Capability metadata is enforced at submit time, before queueing."""
        import repro.server.jobspec as jobspec_module
        from repro.engine.registry import AlgorithmInfo
        from repro.server.jobspec import JobSpec, SpecError

        info = AlgorithmInfo(
            name="NoShard", runner=lambda table, l: None, supports_sharding=False
        )

        class StubRegistry:
            def get(self, name):
                return info

        monkeypatch.setattr(jobspec_module, "algorithm_registry", StubRegistry())
        with pytest.raises(SpecError) as error:
            JobSpec.from_json({"algorithm": "NoShard", "l": 2, "shards": 4})
        assert "does not support sharded execution" in str(error.value)

    def test_oversized_payload_is_413(self, tmp_path):
        handle = ServerHandle(workspace=tmp_path / "ws-small", max_body_bytes=1024)
        try:
            with pytest.raises(urllib.error.HTTPError) as error:
                self._raw_post(handle, b"x" * 4096)
            assert error.value.code == 413
        finally:
            handle.stop()

    def test_include_rows_must_be_boolean(self, server, hospital_rows):
        rows, qi, sa = hospital_rows
        body = json.dumps(
            {"rows": rows, "qi": qi, "sa": sa, "l": 2, "include_rows": "yes"}
        ).encode()
        with pytest.raises(urllib.error.HTTPError) as error:
            self._raw_post(server, body)
        assert error.value.code == 400

    def test_slow_clients_time_out_with_408(self, tmp_path):
        """A socket that never completes its request must not pin a task forever."""
        import socket

        handle = ServerHandle(
            workspace=tmp_path / "ws-slow", request_timeout_seconds=0.2
        )
        try:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                sock.sendall(b"POST /v1/jobs HTTP/1.1\r\n")  # headers never finish
                sock.settimeout(10)
                response = sock.recv(4096)
            assert b"408" in response.split(b"\r\n", 1)[0]
        finally:
            handle.stop()

    def test_unknown_path_is_404_and_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(server.base_url + "/v2/nope", timeout=10)
        assert error.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as error:
            self._raw_post(server, b"{}", path="/v1/algorithms")
        assert error.value.code == 405
        assert error.value.headers["Allow"] == "GET"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ClientError) as error:
            client.status("job-9999")
        assert error.value.status == 404

    def test_result_of_running_job_is_409(self, server, client, hospital_rows):
        server.run(server.server.pool.pause)
        try:
            job_id = _submit_hospital(client, hospital_rows)
            with pytest.raises(ClientError) as error:
                client.result(job_id)
            assert error.value.status == 409
        finally:
            server.run(server.server.pool.resume)
            client.wait(job_id)


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, tmp_path, hospital_rows):
        handle = ServerHandle(
            workspace=tmp_path / "ws-bp", workers=1, queue_cap=2, paused=True
        )
        client = Client(handle.base_url, client_id="bp", retries=0)
        try:
            accepted = [_submit_hospital(client, hospital_rows) for _ in range(2)]
            with pytest.raises(ClientError) as error:
                _submit_hospital(client, hospital_rows)
            assert error.value.status == 429
            assert "queue is full" in error.value.message
            handle.run(handle.server.pool.resume)
            for job_id in accepted:
                assert client.wait(job_id)["status"] == "done"
            health = client.health()
            assert health["jobs"]["rejected_queue_full"] == 1
        finally:
            handle.stop()

    def test_retry_after_header_is_set_on_queue_full(self, tmp_path, hospital_rows):
        handle = ServerHandle(
            workspace=tmp_path / "ws-bp2", workers=1, queue_cap=1, paused=True
        )
        rows, qi, sa = hospital_rows
        try:
            Client(handle.base_url, retries=0).submit(rows=rows, qi=qi, sa=sa, l=2)
            body = json.dumps(
                {"rows": rows, "qi": qi, "sa": sa, "l": 2}
            ).encode()
            request = urllib.request.Request(
                handle.base_url + "/v1/jobs", data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request, timeout=10)
            assert error.value.code == 429
            assert int(error.value.headers["Retry-After"]) >= 1
        finally:
            handle.run(handle.server.pool.resume)
            handle.stop()

    def test_client_retries_through_backpressure(self, tmp_path, hospital_rows):
        """A retrying client eventually lands every submission despite a tiny queue."""
        handle = ServerHandle(workspace=tmp_path / "ws-bp3", workers=2, queue_cap=1)
        client = Client(
            handle.base_url, client_id="patient", retries=20, backoff_seconds=0.05
        )
        try:
            job_ids = [_submit_hospital(client, hospital_rows) for _ in range(6)]
            for job_id in job_ids:
                assert client.wait(job_id)["status"] == "done"
        finally:
            handle.stop()

    def test_per_client_rate_limit_is_429(self, tmp_path, hospital_rows):
        handle = ServerHandle(
            workspace=tmp_path / "ws-rate", rate_limit=0.001, rate_burst=2
        )
        client = Client(handle.base_url, client_id="greedy", retries=0)
        other = Client(handle.base_url, client_id="other", retries=0)
        try:
            for _ in range(2):
                _submit_hospital(client, hospital_rows)
            with pytest.raises(ClientError) as error:
                _submit_hospital(client, hospital_rows)
            assert error.value.status == 429
            assert "rate limited" in error.value.message
            # buckets are per client: another identity still gets through
            _submit_hospital(other, hospital_rows)
            assert client.health()["jobs"]["rejected_rate_limited"] == 1
        finally:
            handle.stop()


class TestCancel:
    def test_cancel_queued_job(self, server, client, hospital_rows):
        server.run(server.server.pool.pause)
        job_id = _submit_hospital(client, hospital_rows)
        record = client.cancel(job_id)
        assert record["status"] == "cancelled"
        server.run(server.server.pool.resume)
        assert client.status(job_id)["status"] == "cancelled"
        with pytest.raises(ClientError) as error:
            client.result(job_id)
        assert error.value.status == 409
        ledger = JobLedger(server.server.workspace.jobs_path)
        assert [r.status for r in ledger.history(job_id)] == ["queued", "cancelled"]

    def test_cancel_done_job_is_409(self, client, hospital_rows):
        job_id = _submit_hospital(client, hospital_rows)
        client.wait(job_id)
        with pytest.raises(ClientError) as error:
            client.cancel(job_id)
        assert error.value.status == 409

    def test_shutdown_cancels_queued_jobs(self, tmp_path, hospital_rows):
        handle = ServerHandle(
            workspace=tmp_path / "ws-drain", workers=1, queue_cap=4, paused=True
        )
        client = Client(handle.base_url, retries=0)
        job_ids = [_submit_hospital(client, hospital_rows) for _ in range(3)]
        handle.stop()
        ledger = JobLedger(handle.server.workspace.jobs_path)
        assert {ledger.get(job_id).status for job_id in job_ids} == {"cancelled"}

    def test_cancel_during_the_submission_window_succeeds(
        self, server, client, hospital_rows, monkeypatch
    ):
        """A job visible as 'queued' but not yet handed to the pool (its spool
        write is still in flight) must be cancellable, not answer 409."""
        import threading
        from pathlib import Path

        entered, release = threading.Event(), threading.Event()
        write_bytes = Path.write_bytes

        def held_spool_write(path, data):
            if path.name.startswith("upload-"):
                entered.set()
                release.wait(10)
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", held_spool_write)
        answers: list = []
        submitter = threading.Thread(
            target=lambda: answers.append(_submit_hospital(client, hospital_rows))
        )
        submitter.start()
        try:
            assert entered.wait(10), "the spool write never started"
            (record,) = JobLedger(server.server.workspace.jobs_path).list()
            cancelled = client.cancel(record.id)
            assert cancelled["status"] == "cancelled"
            assert client.status(record.id)["status"] == "cancelled"
        finally:
            release.set()
            submitter.join(10)
        # The submitter saw the cancel and skipped the enqueue: the job never ran.
        assert answers == [record.id]
        assert client.status(record.id)["status"] == "cancelled"
        ledger = JobLedger(server.server.workspace.jobs_path)
        assert [r.status for r in ledger.history(record.id)] == ["queued", "cancelled"]
        assert not server.server.jobs.spool_path(record.id).exists()

    def test_result_survives_a_failing_terminal_ledger_write(
        self, server, client, hospital_rows
    ):
        """Disk-full on the 'done' append must not leave the job 'running'
        forever or drop the computed result."""
        ledger = server.server.jobs.ledger
        real = ledger.put

        def flaky(record):
            if record.status == "done":
                raise OSError("no space left on device")
            return real(record)

        ledger.put = flaky
        try:
            job_id = _submit_hospital(client, hospital_rows)
            record = client.wait(job_id)
            assert record["status"] == "done"
            assert "ledger append failed" in record["error"]
            assert client.result(job_id)["verified"] is True
        finally:
            ledger.put = real

    def test_failed_spool_write_rolls_the_submission_back(
        self, tmp_path, hospital_rows
    ):
        """If the upload can't be spooled, the just-created ledger record must
        not be left 'queued' forever — the pool never saw the job."""
        handle = ServerHandle(workspace=tmp_path / "ws-spool")
        client = Client(handle.base_url, retries=0)
        try:
            # make the workspace's tmp/ path un-creatable: it's a file
            (handle.server.workspace.root / "tmp").write_text("not a directory")
            with pytest.raises(ClientError) as error:
                _submit_hospital(client, hospital_rows)
            assert error.value.status == 500
            assert "spool" in error.value.message
            records = JobLedger(handle.server.workspace.jobs_path).list()
            assert [record.status for record in records] == ["cancelled"]
        finally:
            handle.stop()

    def test_result_survives_a_failing_running_ledger_write(
        self, server, client, hospital_rows
    ):
        """A transient failure on the 'running' append leaves the ledger
        behind (still 'queued'); the later done append writes the full
        record and catches it up instead of freezing the job."""
        ledger = server.server.jobs.ledger
        real = ledger.put

        def flaky(record):
            if record.status == "running":
                raise OSError("no space left on device")
            return real(record)

        ledger.put = flaky
        try:
            job_id = _submit_hospital(client, hospital_rows)
            record = client.wait(job_id)
            assert record["status"] == "done"
            assert client.result(job_id)["verified"] is True
            assert ledger.get(job_id).status == "done"
        finally:
            ledger.put = real

    def test_out_of_band_ledger_cancel_refreshes_the_resident_record(
        self, server, client, hospital_rows
    ):
        """A CLI `jobs cancel` racing the server must not freeze the job's
        API status on a stale non-terminal in-memory record, and the cancel
        must hold everywhere: counters, resident result, artifact on disk."""
        def counts():
            samples = parse_exposition(client.telemetry_text())
            return (
                sample(samples, "repro_jobs_terminal_total", state="done"),
                sample(samples, "repro_store_hits_total"),
            )

        before = counts()
        server.run(server.server.pool.pause)
        job_id = _submit_hospital(client, hospital_rows)
        # out-of-band writer (e.g. `ldiversity jobs cancel`) on the same ledger
        JobLedger(server.server.workspace.jobs_path).cancel(job_id)
        server.run(server.server.pool.resume)
        deadline = time.monotonic() + 30
        while client.status(job_id)["status"] != "cancelled":
            assert time.monotonic() < deadline, client.status(job_id)
            time.sleep(0.01)
        with pytest.raises(ClientError) as error:
            client.result(job_id)
        assert error.value.status == 409
        # The pool still ran the job; wait until its outcome was refused.
        while server.server.pool.running or server.server.pool.depth:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert counts() == before
        assert client.status(job_id)["result_ready"] is False
        assert not (server.server.workspace.results_dir / job_id).exists()

    def test_shutdown_closes_jobs_that_outlive_the_grace_window(self, tmp_path):
        """A run interrupted by shutdown must not stay 'running' in the ledger."""
        # Wedge the worker with a delay fault so the run reliably outlives the
        # grace window — the engine is fast enough that a plain job can finish
        # inside it.
        plan = FaultPlan(delay_seconds=3.0, delay_seeds=(777,))
        handle = ServerHandle(
            workspace=tmp_path / "ws-grace", workers=1, queue_cap=4,
            run_job=functools.partial(faulty_execute_job, plan),
        )
        client = Client(handle.base_url, retries=0)
        try:
            job_id = client.submit(
                source={"kind": "synthetic", "n": 30_000, "dimension": 3},
                l=2,
                seed=777,
            )
            deadline = time.monotonic() + 30
            while client.status(job_id)["status"] != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.005)
            handle.call(handle.server.shutdown(grace_seconds=0.01))
            record = JobLedger(handle.server.workspace.jobs_path).get(job_id)
            assert record.status == "cancelled"
            assert "before the result was recorded" in record.error
        finally:
            handle.stop()


class TestServerSideCsvSources:
    CSV_TEXT = "Age,Gender,Disease\n" + "\n".join(
        f"{20 + i % 4},{'MF'[i % 2]},D{i % 3}" for i in range(24)
    )
    SOURCE_FIELDS = {"qi": ["Age", "Gender"], "sa": "Disease"}

    def test_csv_sources_are_rejected_without_a_data_dir(self, client, tmp_path):
        readable = tmp_path / "readable.csv"
        readable.write_text(self.CSV_TEXT)
        with pytest.raises(ClientError) as error:
            client.submit(
                source={"kind": "csv", "path": str(readable), **self.SOURCE_FIELDS}, l=2
            )
        assert error.value.status == 403
        assert "disabled" in error.value.message

    def test_data_dir_serves_contained_paths_and_rejects_escapes(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "micro.csv").write_text(self.CSV_TEXT)
        (tmp_path / "outside.csv").write_text(self.CSV_TEXT)
        handle = ServerHandle(workspace=tmp_path / "ws-data", data_dir=data_dir)
        client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
        try:
            # a path inside the allowlist runs (relative to the data dir)
            record, result = client.submit_and_wait(
                source={"kind": "csv", "path": "micro.csv", **self.SOURCE_FIELDS}, l=2
            )
            assert record["status"] == "done"
            assert result["n"] == 24
            # ..-traversal out of the data dir is refused, even though the
            # target exists and is readable by the server user
            for escape in ("../outside.csv", str(tmp_path / "outside.csv")):
                with pytest.raises(ClientError) as error:
                    client.submit(
                        source={"kind": "csv", "path": escape, **self.SOURCE_FIELDS}, l=2
                    )
                assert error.value.status == 403, escape
                assert "outside" in error.value.message
            # a missing file inside the allowlist is still a plain 400
            with pytest.raises(ClientError) as error:
                client.submit(
                    source={"kind": "csv", "path": "nope.csv", **self.SOURCE_FIELDS}, l=2
                )
            assert error.value.status == 400
        finally:
            handle.stop()


class TestResidency:
    def test_spooled_uploads_are_deleted_after_the_job(self, server, client, hospital_rows):
        job_id = _submit_hospital(client, hospital_rows)
        client.wait(job_id)
        tmp_dir = server.server.workspace.tmp_dir
        assert not list(tmp_dir.glob("upload-*.csv"))

    def test_cancelled_jobs_drop_their_spool(self, server, client, hospital_rows):
        server.run(server.server.pool.pause)
        try:
            job_id = _submit_hospital(client, hospital_rows)
            client.cancel(job_id)
            assert not list(server.server.workspace.tmp_dir.glob(f"upload-{job_id}.csv"))
        finally:
            server.run(server.server.pool.resume)

    def test_resident_results_are_bounded(self, tmp_path, hospital_rows):
        """Old terminal results are evicted; status falls back to the ledger."""
        handle = ServerHandle(
            workspace=tmp_path / "ws-resident", workers=1, queue_cap=4,
            max_resident_jobs=1,
        )
        client = Client(handle.base_url, retries=10, backoff_seconds=0.02)
        try:
            first = _submit_hospital(client, hospital_rows)
            client.wait(first)
            second = _submit_hospital(client, hospital_rows, algorithm="TP+")
            client.wait(second)
            # cap is clamped to queue_cap + workers + 1 = 6; fill past it
            more = [
                _submit_hospital(client, hospital_rows, l=2, seed=index)
                for index in range(6)
            ]
            for job_id in more:
                client.wait(job_id)
            assert len(handle.server.jobs) <= handle.server.max_resident_jobs
            # evicted jobs still answer status from the ledger...
            assert client.status(first)["status"] == "done"
            # ...but their result is no longer resident
            with pytest.raises(ClientError) as error:
                client.result(first)
            assert error.value.status == 404
        finally:
            handle.stop()


class TestIntrospection:
    def test_health_reports_version_and_counters(self, client, hospital_rows):
        from repro import __version__

        job_id = _submit_hospital(client, hospital_rows)
        client.wait(job_id)
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["jobs"]["submitted"] >= 1
        assert health["jobs"]["done"] >= 1

    def test_algorithm_registry_view(self, client):
        names = {entry["name"] for entry in client.algorithms()}
        assert {"TP", "TP+", "Hilbert"} <= names
        for entry in client.algorithms():
            assert set(entry) == {
                "name", "description", "complexity", "approximation",
                "supports_sharding", "deterministic",
            }

    def test_metric_registry_view(self, client):
        names = {entry["name"] for entry in client.metrics()}
        assert {"stars", "kl"} <= names

    def test_plan_endpoint_explains_decision(self, client):
        decision = client.plan(n=50_000, l=4, algorithm="TP+", d=3)
        assert decision["shards"] >= 1
        assert decision["workers"] >= 1
        assert "backend" not in decision
        assert decision["reasons"]
        assert decision["candidates"]

    def test_plan_unknown_algorithm_is_400(self, client):
        with pytest.raises(ClientError) as error:
            client.plan(n=100, l=2, algorithm="NoSuch")
        assert error.value.status == 400
        for key in ("shards", "workers"):
            for value in ("2", "x", 0, -1, 2.5):
                with pytest.raises(ClientError) as error:
                    client.plan(n=100, l=2, **{key: value})
                assert error.value.status == 400, (key, value)


class TestPrivacyModels:
    def test_privacy_introspection_lists_every_registered_spec(self, client):
        models = {entry["name"]: entry for entry in client.privacy_models()}
        assert set(models) == set(privacy_registry.names())
        assert models["frequency-l"]["default"] is True
        assert models["t-closeness"]["enforceable"] is False
        for entry in models.values():
            assert entry["params"], entry["name"]
            for constraints in entry["params"].values():
                assert constraints["type"] in ("integer", "number")

    def test_submit_with_privacy_object(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        record, result = client.submit_and_wait(
            rows=rows, qi=qi, sa=sa, algorithm="TP",
            privacy={"kind": "entropy-l", "l": 2},
        )
        assert record["status"] == "done"
        assert record["privacy"] == {"kind": "entropy-l", "l": 2.0}
        assert result["privacy"] == {"kind": "entropy-l", "l": 2.0}
        assert result["verified"] is True
        # independent check of the returned table at rendered granularity
        histograms: dict[tuple, dict] = {}
        for row in result["rows"]:
            histogram = histograms.setdefault(tuple(row[:-1]), {})
            histogram[row[-1]] = histogram.get(row[-1], 0) + 1
        spec = EntropyLDiversity(2.0)
        assert all(spec.check(histogram) for histogram in histograms.values())

    def test_submit_with_spec_instance_and_csv_upload(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=qi + [sa])
        writer.writeheader()
        writer.writerows(rows)
        record, result = client.submit_and_wait(
            csv_text=buffer.getvalue(), qi=qi, sa=sa, algorithm="TP",
            privacy=KAnonymity(2),
        )
        assert record["status"] == "done"
        assert result["privacy"] == {"kind": "k-anonymity", "k": 2}
        # the sensitive column survives even though the spec is SA-blind
        assert sorted(row[-1] for row in result["rows"]) == sorted(
            row[sa] for row in rows
        )

    def test_default_submission_echoes_the_frequency_spec(self, client, hospital_rows):
        job_id = _submit_hospital(client, hospital_rows)
        record = client.wait(job_id)
        assert record["privacy"] == {"kind": "frequency-l", "l": 2}

    @pytest.mark.parametrize(
        "privacy, fragment",
        [
            ({"kind": "no-such-model", "l": 2}, "unknown privacy model"),
            ({"kind": "entropy-l"}, "requires parameters"),
            ({"kind": "entropy-l", "l": 0}, "must be positive"),
            ({"kind": "t-closeness", "t": 0.2}, "check-only"),
            ({"kind": "frequency-l", "l": 2, "zz": 1}, "does not take"),
        ],
    )
    def test_invalid_privacy_objects_are_rejected(
        self, client, hospital_rows, privacy, fragment
    ):
        rows, qi, sa = hospital_rows
        with pytest.raises(ClientError) as excinfo:
            client.submit(rows=rows, qi=qi, sa=sa, privacy=privacy)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    def test_submission_needs_l_or_privacy(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        with pytest.raises(ValueError):
            client.submit(rows=rows, qi=qi, sa=sa)
        # server-side check too (the SDK guard could be bypassed)
        request = urllib.request.Request(
            f"{client.base_url}/v1/jobs",
            data=json.dumps({"rows": [{"a": 1}], "qi": ["a"], "sa": "b"}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        excinfo.value.read()
        assert excinfo.value.code == 400

    def test_plan_endpoint_accepts_a_privacy_object(self, client):
        decision = client.plan(
            n=50_000, l=2, algorithm="TP",
            privacy={"kind": "recursive-cl", "c": 2.0, "l": 3},
        )
        assert decision["privacy"] == "recursive-cl(c=2.0,l=3)"
        assert any("privacy" in reason for reason in decision["reasons"])

    def test_ledger_records_the_spec_for_cli_interop(self, server, client, hospital_rows):
        job_id = _submit_hospital(client, hospital_rows)
        client.wait(job_id)
        ledger = JobLedger(server.server.workspace.jobs_path)
        assert ledger.get(job_id).privacy == {"kind": "frequency-l", "l": 2}
