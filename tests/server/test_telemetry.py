"""Telemetry over the loopback server: exposition, exact counters, tracing.

The Prometheus parser used here is written *in the test* (independent of
:func:`repro.obs.metrics.parse_prometheus_text`), so a format regression in
the exposition cannot be masked by a matching regression in the library's
own parser.
"""

from __future__ import annotations

import concurrent.futures
import re
import urllib.request

import pytest

from repro.client import BackpressureError, Client
from repro.obs.trace import grafted_problems

# --------------------------------------------------------- minimal parser


def parse_exposition(text: str) -> dict:
    """A deliberately independent Prometheus text parser.

    Returns ``{(name, frozenset(label pairs)): float}`` and asserts the
    structural invariants of the format (``# TYPE`` precedes samples, every
    non-comment line parses).
    """
    samples: dict = {}
    typed: set[str] = set()
    # Greedy label block: label *values* may contain '}' (route templates).
    line_re = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{.*\})?\s+(\S+)$")
    label_re = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
            continue
        if line.startswith("#"):
            continue
        match = line_re.match(line)
        assert match is not None, f"unparseable exposition line: {line!r}"
        name, raw_labels, raw_value = match.groups()
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or base in typed, f"sample {name} precedes its # TYPE"
        labels = frozenset(label_re.findall(raw_labels or ""))
        value = float(raw_value.replace("+Inf", "inf"))
        samples[(name, labels)] = value
    return samples


def sample(samples: dict, name: str, **labels) -> float:
    return samples.get((name, frozenset(labels.items())), 0.0)


# -------------------------------------------------------------- behaviour


class TestTelemetryEndpoint:
    def test_scrape_is_valid_prometheus_text(self, server, client, hospital_rows):
        rows, qi, sa = hospital_rows
        job_id = client.submit(rows=rows, qi=qi, sa=sa, l=2)
        client.wait(job_id)
        raw = urllib.request.urlopen(f"{server.base_url}/v1/telemetry", timeout=10)
        assert raw.headers["Content-Type"].startswith("text/plain")
        samples = parse_exposition(raw.read().decode("utf-8"))
        assert sample(samples, "repro_jobs_submitted_total") == 1.0
        assert sample(samples, "repro_jobs_terminal_total", state="done") == 1.0
        assert sample(samples, "repro_queue_capacity") == 8.0
        assert (
            sample(
                samples,
                "repro_http_requests_total",
                route="/v1/jobs",
                method="POST",
                status="202",
            )
            == 1.0
        )
        # The engine stage histograms were bridged back from the worker.
        assert sample(samples, "repro_engine_stage_seconds_count", stage="phase1") >= 1.0

    def test_telemetry_agrees_with_health(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        for _ in range(2):
            client.wait(client.submit(rows=rows, qi=qi, sa=sa, l=2))
        samples = parse_exposition(client.telemetry_text())
        health = client.health()
        assert health["jobs"]["submitted"] == sample(
            samples, "repro_jobs_submitted_total"
        )
        assert health["jobs"]["done"] == sample(
            samples, "repro_jobs_terminal_total", state="done"
        )
        assert health["callback_errors"] == sample(
            samples, "repro_pool_callback_errors_total"
        )
        assert health["pool"]["retries"] == sample(samples, "repro_pool_retries_total")
        assert health["pool"]["quarantined"] == sample(
            samples, "repro_pool_quarantined_total"
        )

    def test_concurrent_requests_lose_no_increments(self, server):
        """The hammer: exact request counts under thread-parallel load."""
        threads, per_thread = 8, 25
        url = f"{server.base_url}/v1/health"

        def work(_: int) -> int:
            done = 0
            for _ in range(per_thread):
                with urllib.request.urlopen(url, timeout=10) as response:
                    assert response.status == 200
                    done += 1
            return done

        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            total = sum(pool.map(work, range(threads)))
        assert total == threads * per_thread
        samples = parse_exposition(
            urllib.request.urlopen(
                f"{server.base_url}/v1/telemetry", timeout=10
            ).read().decode("utf-8")
        )
        assert (
            sample(
                samples,
                "repro_http_requests_total",
                route="/v1/health",
                method="GET",
                status="200",
            )
            == threads * per_thread
        )
        assert (
            sample(samples, "repro_http_request_seconds_count", route="/v1/health")
            == threads * per_thread
        )


class TestRequestTracing:
    def test_request_id_echoed_and_minted(self, server):
        request = urllib.request.Request(
            f"{server.base_url}/v1/health", headers={"X-Request-Id": "fixed-id-1"}
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Request-Id"] == "fixed-id-1"
        with urllib.request.urlopen(
            f"{server.base_url}/v1/health", timeout=10
        ) as response:
            minted = response.headers["X-Request-Id"]
            assert minted and len(minted) == 32

    def test_trace_carries_client_request_id_end_to_end(
        self, client, hospital_rows
    ):
        rows, qi, sa = hospital_rows
        job_id = client.submit(rows=rows, qi=qi, sa=sa, l=2)
        minted = client.last_request_id
        client.wait(job_id)

        # The id is stamped on the ledger record...
        assert client.status(job_id)["request_id"] == minted
        # ...and keys the span tree.
        trace = client.trace(job_id)
        assert trace["id"] == job_id
        assert trace["request_id"] == minted

        spans = {span["name"]: span for span in trace["spans"]}
        for name in ("submit", "queue-wait", "attempt-1", "publish"):
            assert name in spans, f"missing lifecycle span {name}"
        assert spans["attempt-1"]["attributes"]["outcome"] == "done"
        # The worker's tree hangs under the attempt: one engine root whose
        # descendants each chain back to it and lie within their parent.
        assert grafted_problems(trace["spans"], "attempt-1", "engine:") == []
        assert spans["engine:job"]["parent"] == "attempt-1"
        assert spans["engine:run"]["parent"] == "engine:job"
        assert spans["engine:phase1"]["parent"] == "engine:anonymize"

    def test_every_engine_span_lies_within_its_attempt(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        job_id = client.submit(rows=rows, qi=qi, sa=sa, l=2, algorithm="TP")
        client.wait(job_id)
        spans = client.trace(job_id)["spans"]
        attempt = next(span for span in spans if span["name"] == "attempt-1")
        engine = [span for span in spans if span["name"].startswith("engine:")]
        assert len(engine) > 5
        for span in engine:
            assert span["start"] >= attempt["start"], span["name"]
            assert (
                span["start"] + span["seconds"]
                <= attempt["start"] + attempt["seconds"]
            ), span["name"]

    def test_trace_of_unknown_job_is_404(self, client):
        from repro.client import ClientError

        with pytest.raises(ClientError) as info:
            client.trace("no-such-job")
        assert info.value.status == 404

    def test_result_payload_carries_request_id(self, client, hospital_rows):
        rows, qi, sa = hospital_rows
        job_id = client.submit(rows=rows, qi=qi, sa=sa, l=2)
        minted = client.last_request_id
        client.wait(job_id)
        assert client.result(job_id)["request_id"] == minted


class TestClientGiveUp:
    """Satellite regression: give-ups chain their cause and carry the id."""

    def test_backpressure_giveup_chains_cause_and_logs(
        self, tmp_path, hospital_rows, caplog
    ):
        from server_harness import ServerHandle

        rows, qi, sa = hospital_rows
        handle = ServerHandle(
            workspace=tmp_path / "bp-ws", paused=True, workers=1, queue_cap=1
        )
        try:
            client = Client(
                handle.base_url, retries=2, backoff_seconds=0.01, jitter_seed=7
            )
            client.submit(rows=rows, qi=qi, sa=sa, l=2)  # fills the queue
            with caplog.at_level("WARNING", logger="repro.client"):
                with pytest.raises(BackpressureError) as info:
                    client.submit(rows=rows, qi=qi, sa=sa, l=2)
            error = info.value
            assert error.status == 429
            # The final 429 response rides along as the cause...
            assert error.__cause__ is not None
            assert getattr(error.__cause__, "code", None) == 429
            # ...and the message names the request id of the episode.
            assert client.last_request_id in str(error)
            # The give-up was logged with that id.
            giveups = [
                record
                for record in caplog.records
                if "giving up" in record.getMessage()
            ]
            assert giveups
            assert giveups[-1].request_id == client.last_request_id
        finally:
            handle.stop()

    def test_connection_giveup_chains_cause(self):
        client = Client(
            "http://127.0.0.1:1", retries=1, backoff_seconds=0.01, jitter_seed=7
        )
        from repro.client import ClientError

        with pytest.raises(ClientError) as info:
            client.health()
        assert info.value.status == 0
        assert info.value.__cause__ is not None
        assert client.last_request_id in str(info.value)


class TestPoolCounterConsolidation:
    """Satellite regression: pool counters live on the locked obs registry."""

    def test_callback_error_attribute_reads_the_registry(self, tmp_path):
        import asyncio

        from repro.server.pool import WorkerPool

        def transition(job_id, status, **kwargs):
            raise OSError("sink is broken")

        async def scenario():
            pool = WorkerPool(
                workers=2,
                queue_cap=8,
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
            for index in range(4):
                pool.submit(f"job-{index}", spec)
            await pool._queue.join()
            count = pool.metrics.get("repro_pool_callback_errors_total").total()
            await pool.shutdown()
            return count

        registry_view = asyncio.run(scenario())
        # Every job fires exactly two callbacks (running + done), both raise.
        assert registry_view == 8.0
