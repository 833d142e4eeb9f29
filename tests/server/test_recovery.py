"""Failure-matrix tests: the server surviving the failures it promises to.

Each test breaks a live loopback server through the job function its pool
runs (``run_job`` wrapped with a :class:`tests.fault_plan.FaultPlan`: worker
kills, injected delays), a one-shot ledger-append failure or a staged ledger
(restart replay), and asserts the at-least-once contract: every submitted
job reaches a terminal state, retryable failures are retried with the
counters to prove it, and poison jobs are quarantined instead of
crash-looping the pool.

Jobs run on a *thread* executor here (like the rest of the server suite);
worker death is injected as :class:`BrokenProcessPool` by the faulty job
function, so the pool's recovery path sees the identical exception the
production process pool would raise.  ``scripts/chaos_smoke.py`` covers real process kills and
a real SIGKILL server restart end to end.
"""

from __future__ import annotations

import functools
import json
import time

import pytest
from server_harness import ServerHandle

from repro.client import Client, JobFailedError
from repro.privacy.spec import resolve_privacy
from repro.service.jobs import JobLedger
import tests.fault_plan as fault_plan
from tests.fault_plan import FaultPlan, fail_next_append, faulty_execute_job


@pytest.fixture(autouse=True)
def _zero_job_counter(monkeypatch):
    monkeypatch.setattr(fault_plan, "_jobs_executed", 0)


def _handle(tmp_path, plan: FaultPlan | None = None, **kwargs) -> ServerHandle:
    if plan is not None:
        kwargs["run_job"] = functools.partial(faulty_execute_job, plan)
    kwargs.setdefault("workspace", tmp_path / "server-ws")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_cap", 8)
    kwargs.setdefault("retry_backoff_seconds", 0.05)
    return ServerHandle(**kwargs)


def _synthetic_source(seed: int, n: int = 80) -> dict:
    return {"kind": "synthetic", "dataset": "SAL", "n": n, "seed": seed, "dimension": 2}


def _queued_spec(seed: int = 3, n: int = 80) -> dict:
    """A job spec exactly as the submit handler would persist it."""
    return {
        "algorithm": "TP",
        "l": 2,
        "privacy": resolve_privacy(None, 2).to_dict(),
        "metrics": [],
        "shards": None,
        "seed": seed,
        "chunk_rows": None,
        "include_rows": True,
        "source": _synthetic_source(seed, n),
    }


def _wait_status(client: Client, job_id: str, statuses, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        record = client.status(job_id)
        if record["status"] in statuses:
            return record
        if time.monotonic() >= deadline:
            raise TimeoutError(f"job {job_id} stuck {record['status']}")
        time.sleep(0.02)


class TestWorkerDeathRecovery:
    def test_broken_pool_mid_job_is_retried_and_succeeds(self, tmp_path):
        """kill_every: one attempt dies with its worker, the retry lands."""
        # The 2nd execution in this process dies; with one drainer the
        # schedule is deterministic: job-a runs clean, job-b's first attempt
        # dies, its retry (execution #3) runs clean.
        handle = _handle(tmp_path, FaultPlan(kill_every=2))
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            job_a = client.submit(l=2, source=_synthetic_source(1))
            job_b = client.submit(l=2, source=_synthetic_source(2))
            record_a = client.wait(job_a, timeout=15)
            record_b = client.wait(job_b, timeout=15)
            assert record_a["status"] == record_b["status"] == "done"
            health = client.health()
            assert health["pool"]["retries"] >= 1
            assert health["pool"]["pool_restarts"] >= 1
            assert health["pool"]["quarantined"] == 0
            # the crashed attempt is visible on the record
            crashed = client.status(job_b)
            assert crashed["attempts"] == 2
            assert "WorkerCrashError" in crashed["last_error"]
        finally:
            handle.stop()

    def test_poison_job_is_quarantined_after_max_attempts(self, tmp_path):
        handle = _handle(tmp_path, FaultPlan(kill_seeds=(666,)), max_attempts=2)
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            healthy = client.submit(l=2, source=_synthetic_source(1))
            poison = client.submit(l=2, source=_synthetic_source(666), seed=666)
            assert client.wait(healthy, timeout=15)["status"] == "done"
            with pytest.raises(JobFailedError) as failure:
                client.wait(poison, timeout=15)
            record = failure.value.record
            assert record["status"] == "failed"
            assert record["quarantined"] is True
            assert record["attempts"] == 2
            assert "quarantined after 2 attempts" in record["error"]
            assert client.health()["pool"]["quarantined"] == 1
            # quarantine is terminal in the ledger too, not just in memory
            ledger = JobLedger(handle.server.workspace.jobs_path)
            assert ledger.get(record["id"]).status == "failed"
            assert ledger.get(record["id"]).quarantined is True
        finally:
            handle.stop()


class TestNoFaultSwitch:
    def test_a_served_job_ignores_a_fault_plan_in_the_environment(
        self, tmp_path, monkeypatch
    ):
        """Only the job function a server is built with can inject faults: a
        plan in ``REPRO_FAULTS`` must not kill a production job."""
        monkeypatch.setenv("REPRO_FAULTS", '{"kill_seeds":[666]}')
        handle = _handle(tmp_path, executor_kind="thread")
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            job_id = client.submit(l=2, source=_synthetic_source(666), seed=666)
            record = client.wait(job_id, timeout=15)
            assert record["status"] == "done"
            assert record["attempts"] == 1
        finally:
            handle.stop()


class TestJobTimeout:
    def test_timeout_then_succeed(self, tmp_path):
        """delay_once wedges the first attempt past --job-timeout; the retry
        runs clean and the job still completes."""
        handle = _handle(
            tmp_path,
            FaultPlan(delay_seconds=1.5, delay_seeds=(777,)),
            job_timeout_seconds=0.2,
        )
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            job_id = client.submit(l=2, source=_synthetic_source(777), seed=777)
            record = client.wait(job_id, timeout=20)
            assert record["status"] == "done"
            assert record["attempts"] == 2
            assert "JobTimeoutError" in record["last_error"]
            health = client.health()
            assert health["pool"]["timeouts"] >= 1
            assert health["pool"]["retries"] >= 1
            assert health["pool"]["job_timeout_seconds"] == 0.2
        finally:
            handle.stop()


class TestRestartReplay:
    def test_non_terminal_ledger_jobs_are_replayed_at_boot(self, tmp_path):
        """A queued job and an interrupted running job from a killed server
        both complete after a fresh boot on the same workspace."""
        workspace = tmp_path / "server-ws"
        ledger = JobLedger(workspace / "jobs.jsonl")
        queued = ledger.create(
            label="SAL-2@80", algorithm="TP", l=2,
            privacy=resolve_privacy(None, 2).to_dict(),
            spec=_queued_spec(seed=11), max_attempts=3,
        )
        interrupted = ledger.create(
            label="SAL-2@80", algorithm="TP", l=2,
            privacy=resolve_privacy(None, 2).to_dict(),
            spec=_queued_spec(seed=12), max_attempts=3,
        )
        ledger.transition(interrupted.id, "running", attempts=1)

        handle = _handle(tmp_path)
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            for job_id in (queued.id, interrupted.id):
                assert _wait_status(client, job_id, ("done",))["status"] == "done"
            assert handle.server.stats["replayed"] == 2
            # the interrupted attempt is on the record: it went through
            # 'retrying' and its replacement attempt counted
            record = client.status(interrupted.id)
            assert record["attempts"] >= 2
            history = [r.status for r in ledger.history(interrupted.id)]
            assert "retrying" in history
        finally:
            handle.stop()

    def test_legacy_record_with_a_backend_replays_on_the_one_data_plane(self, tmp_path):
        """Ledgers written while the backend was a runtime choice carry it in
        the record and in the stored spec; both are ignored on replay."""
        workspace = tmp_path / "server-ws"
        ledger = JobLedger(workspace / "jobs.jsonl")
        legacy = ledger.create(
            label="SAL-2@80", algorithm="TP", l=2,
            privacy=resolve_privacy(None, 2).to_dict(),
            spec={**_queued_spec(seed=13), "backend": "reference"}, max_attempts=3,
        )
        line = json.loads(ledger.path.read_text())
        ledger.path.write_text(json.dumps({**line, "backend": "reference"}) + "\n")

        handle = _handle(tmp_path)
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            record = _wait_status(client, legacy.id, ("done", "failed"))
            assert record["status"] == "done"
            assert "backend" not in record
            assert handle.server.stats["replayed"] == 1
        finally:
            handle.stop()

    def test_replay_fails_an_upload_whose_spool_is_gone(self, tmp_path):
        """An uploaded-CSV job whose spool file did not survive the crash
        cannot be re-run; it must fail terminally, not sit queued forever."""
        workspace = tmp_path / "server-ws"
        ledger = JobLedger(workspace / "jobs.jsonl")
        spec = _queued_spec(seed=5)
        spec["source"] = {"kind": "csv", "path": "", "qi": ["Age"], "sa": "Disease"}
        lost = ledger.create(
            label="upload(1B)", algorithm="TP", l=2,
            privacy=resolve_privacy(None, 2).to_dict(),
            spec=spec, max_attempts=3,
        )
        handle = _handle(tmp_path)
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            record = _wait_status(client, lost.id, ("failed",))
            assert "spool lost" in record["error"]
            assert handle.server.stats["replayed"] == 0
        finally:
            handle.stop()

    def test_replay_can_be_disabled(self, tmp_path):
        workspace = tmp_path / "server-ws"
        ledger = JobLedger(workspace / "jobs.jsonl")
        parked = ledger.create(
            label="SAL-2@80", algorithm="TP", l=2,
            privacy=resolve_privacy(None, 2).to_dict(),
            spec=_queued_spec(seed=7), max_attempts=3,
        )
        handle = _handle(tmp_path, replay=False)
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            time.sleep(0.2)
            assert client.status(parked.id)["status"] == "queued"
            assert handle.server.stats["replayed"] == 0
        finally:
            handle.stop()

    def test_boot_compacts_the_ledger(self, tmp_path):
        """Superseded transition lines are reclaimed at boot and counted."""
        workspace = tmp_path / "server-ws"
        ledger = JobLedger(workspace / "jobs.jsonl")
        done = ledger.create(
            label="x", algorithm="TP", l=2,
            privacy=resolve_privacy(None, 2).to_dict(),
        )
        ledger.transition(done.id, "running")
        ledger.transition(done.id, "done")
        handle = _handle(tmp_path)
        try:
            assert handle.server.stats["compaction_reclaimed"] == 2
            lines = (workspace / "jobs.jsonl").read_text().strip().splitlines()
            assert len(lines) == 1
        finally:
            handle.stop()


class TestLedgerAppendFailure:
    def test_job_reaches_terminal_state_despite_lost_retry_append(self, tmp_path):
        """The one-shot ledger failure lands on the 'retrying' append of a
        poison job; the job must still end quarantined (memory and ledger)."""
        handle = _handle(tmp_path, FaultPlan(kill_seeds=(666,)), max_attempts=2)
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            # The one-shot must hit the retry transition, the hardest append
            # to lose.
            fail_next_append(handle.server.jobs.ledger, "retrying")
            job_id = client.submit(l=2, source=_synthetic_source(666), seed=666)
            with pytest.raises(JobFailedError) as failure:
                client.wait(job_id, timeout=20)
            assert failure.value.record["quarantined"] is True
            ledger = JobLedger(handle.server.workspace.jobs_path)
            final = ledger.get(job_id)
            assert final.status == "failed"
            assert final.quarantined is True
            # the one-shot fired: the retry transition never reached the file
            assert "retrying" not in [r.status for r in ledger.history(job_id)]
        finally:
            handle.stop()


class TestRetryingCancel:
    def test_a_job_waiting_out_its_backoff_can_be_cancelled(self, tmp_path):
        handle = _handle(
            tmp_path, FaultPlan(kill_seeds=(666,)), max_attempts=5,
            retry_backoff_seconds=5.0,
        )
        try:
            client = Client(handle.base_url, retries=3, backoff_seconds=0.01)
            job_id = client.submit(l=2, source=_synthetic_source(666), seed=666)
            _wait_status(client, job_id, ("retrying",))
            record = client.cancel(job_id)
            assert record["status"] == "cancelled"
            assert client.status(job_id)["status"] == "cancelled"
        finally:
            handle.stop()
