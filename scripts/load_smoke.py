"""CI smoke check for the anonymization server under concurrent load.

Boots ``ldiversity serve`` in a subprocess (unless ``--base-url`` points at a
running server), then:

1. **throughput + correctness** — ``--clients`` threads (default 8) submit
   ``--jobs`` jobs (default 200) drawn from a small set of distinct
   workloads, wait for each and fetch its result; every returned table must
   be l-diverse (checked independently, in-process) and the sensitive
   column must survive as a multiset on the inline workloads;
2. **store reuse** — the workload set is much smaller than the job count, so
   repeated identical submissions must be served from the persistent run
   store (``store_hit``) rather than recomputed; the smoke asserts at least
   one cross-request store hit (and reports the observed rate).  After the
   load phase the workspace's ``runs/`` must hold no ``.tmp-*`` directory
   and at most ``max_entries`` records, and every record must reopen through
   ``RunStore.get`` against its source — the pool's racing publishes left
   whole records only;
3. **backpressure** — a burst of slow jobs from a non-retrying client must
   produce at least one ``429`` with a ``Retry-After`` header once the
   bounded queue fills, and still-queued burst jobs are then cancelled
   through the API (exercising the ``cancelled`` lifecycle state);
4. **privacy specs** — a slice of jobs is submitted with non-default
   ``privacy`` objects (entropy-l, recursive-cl, alpha-k, k-anonymity)
   through the HTTP API; each result is re-verified in-process with the
   matching spec checker at rendered-row granularity, and the record/result
   payloads must echo the resolved spec;
5. **result artifacts** — a 10^5-row job is served end-to-end
   (submit → ``result_csv``) off its zero-copy artifact: the bytes must be
   identical to the same job run in-process and rendered row by row in this
   script, the fetched table must still satisfy its privacy spec, and a
   repeat fetch must be a render-cache hit (the cache-hit counter moves, the
   render counter does not);
6. **telemetry** — ``GET /v1/telemetry`` is scraped (and parsed as
   Prometheus text) before and after the run: request/submission counters
   must have moved by at least the work performed, the queue-full rejections
   of phase 3 must appear under ``repro_jobs_rejected_total``, and a fixed
   job's trace (``GET /v1/jobs/{id}/trace``) must contain every lifecycle
   span — submit, queue-wait, attempt-1, the engine tree nested under it,
   publish — keyed by the client-minted request id;
7. **clean shutdown** — the server subprocess must exit with code 0 on
   SIGTERM.

Exit code 0 on success, 1 on any violation::

    PYTHONPATH=src python scripts/load_smoke.py
    PYTHONPATH=src python scripts/load_smoke.py --base-url http://127.0.0.1:8350
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
import urllib.error
import urllib.request
from collections import Counter

from repro.client import BackpressureError, Client, ClientError
from repro.dataset.examples import hospital_microdata
from repro.obs.metrics import parse_prometheus_text
from repro.obs.trace import grafted_problems
from repro.privacy.spec import privacy_from_dict, privacy_registry

QUEUE_CAP = 8
WORKERS = 4
BURST_JOBS = 20
BURST_N = 25_000
ARTIFACT_N = 100_000
ARTIFACT_L = 4
#: ``Workspace.run_store``'s default record cap, which the server uses.
STORE_MAX_ENTRIES = 256


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def rows_l_diverse(rows: list[list[str]], qi_width: int, l: int) -> bool:
    """Independent eligibility check of a returned table (last column = SA)."""
    histograms: dict[tuple, Counter] = {}
    for row in rows:
        key = tuple(row[:qi_width])
        histograms.setdefault(key, Counter())[row[qi_width]] += 1
    if not histograms:
        return False
    return all(
        max(histogram.values()) * l <= sum(histogram.values())
        for histogram in histograms.values()
    )


def workload_set() -> list[dict]:
    """Distinct submissions; deliberately few so repeats hit the store."""
    table = hospital_microdata()
    rows = [
        {key: str(value) for key, value in table.decoded_record(index).items()}
        for index in range(len(table))
    ]
    qi = list(table.schema.qi_names)
    sa = table.schema.sensitive.name
    workloads: list[dict] = [
        {"rows": rows, "qi": qi, "sa": sa, "l": 2, "algorithm": "TP"},
        {"rows": rows, "qi": qi, "sa": sa, "l": 2, "algorithm": "TP+"},
        {"rows": rows, "qi": qi, "sa": sa, "l": 2, "algorithm": "Hilbert"},
    ]
    for l, n, algorithm in (
        (2, 200, "TP"),
        (3, 300, "TP+"),
        (4, 400, "TP"),
        (4, 400, "TP+"),
        (5, 500, "Hilbert"),
        (2, 250, "Mondrian"),
        (3, 350, "TP+"),
    ):
        workloads.append(
            {
                "source": {"kind": "synthetic", "dataset": "SAL", "n": n,
                           "seed": 11, "dimension": 3},
                "l": l,
                "algorithm": algorithm,
                "metrics": ["stars"],
            }
        )
    return workloads


class ClientWorker(threading.Thread):
    """One synthetic user: submit -> wait -> fetch -> verify, in a loop."""

    def __init__(self, index: int, base_url: str, jobs: int, workloads: list[dict]):
        super().__init__(daemon=True)
        self.index = index
        self.client = Client(
            base_url,
            client_id=f"load-{index}",
            retries=30,
            backoff_seconds=0.05,
            timeout=60.0,
        )
        self.jobs = jobs
        self.workloads = workloads
        self.completed = 0
        self.store_hits = 0
        self.errors: list[str] = []

    def run(self) -> None:
        for round_number in range(self.jobs):
            workload = self.workloads[(self.index + round_number) % len(self.workloads)]
            try:
                record, result = self.client.submit_and_wait(timeout=120.0, **workload)
            except Exception as error:  # noqa: BLE001 - collected, reported below
                self.errors.append(f"{type(error).__name__}: {error}")
                return
            qi_width = len(result["header"]) - 1
            if not result["verified"]:
                self.errors.append(f"{record['id']}: server did not verify the output")
                return
            if not rows_l_diverse(result["rows"], qi_width, workload["l"]):
                self.errors.append(
                    f"{record['id']}: returned table violates {workload['l']}-diversity"
                )
                return
            if "rows" in workload:
                sa_name = workload["sa"]
                want = sorted(row[sa_name] for row in workload["rows"])
                got = sorted(row[qi_width] for row in result["rows"])
                if want != got:
                    self.errors.append(f"{record['id']}: sensitive column was altered")
                    return
            self.completed += 1
            if result["store_hit"]:
                self.store_hits += 1


def rows_satisfy_spec(rows: list[list[str]], qi_width: int, spec) -> bool:
    """Re-check a returned table against a privacy spec at rendered granularity."""
    histograms: dict[tuple, Counter] = {}
    total: Counter = Counter()
    for row in rows:
        histograms.setdefault(tuple(row[:qi_width]), Counter())[row[qi_width]] += 1
        total[row[qi_width]] += 1
    if not histograms:
        return False
    return all(spec.check(histogram, total) for histogram in histograms.values())


#: The non-default spec slice of phase 4 (entropy-l twice so one submission
#: exercises a store hit under a non-frequency spec).
PRIVACY_SPECS = [
    {"kind": "entropy-l", "l": 2.0},
    {"kind": "recursive-cl", "c": 2.0, "l": 2},
    {"kind": "alpha-k", "alpha": 0.5, "k": 4},
    {"kind": "k-anonymity", "k": 4},
    {"kind": "entropy-l", "l": 2.0},
]


def phase_run_store(workspace: str, workloads: list[dict]) -> None:
    """Phase 1's concurrent publishes left whole records only: no temp
    directory, at most ``STORE_MAX_ENTRIES`` records, and every record
    reopens through ``RunStore.get`` against its source table."""
    from repro.server.jobspec import build_source
    from repro.service.store import TMP_PREFIX
    from repro.service.workspace import Workspace

    store = Workspace(workspace).run_store()
    leftovers = sorted(p.name for p in store.path.iterdir() if p.name.startswith(TMP_PREFIX))
    if leftovers:
        fail(f"run store kept temp directories after the load phase: {leftovers}")
    keys = store.keys()
    if not keys or len(keys) > STORE_MAX_ENTRIES:
        fail(f"run store holds {len(keys)} records, expected 1..{STORE_MAX_ENTRIES}")
    tables = {}
    with tempfile.TemporaryDirectory() as scratch:
        for index, workload in enumerate(workloads):
            source = workload.get("source")
            if source is None:  # inline rows: spool them the way the server does
                columns = [*workload["qi"], workload["sa"]]
                path = Path(scratch) / f"inline-{index}.csv"
                with open(path, "w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(columns)
                    writer.writerows([row[name] for name in columns] for row in workload["rows"])
                source = {"kind": "csv", "path": str(path), "qi": workload["qi"],
                          "sa": workload["sa"]}
            table = build_source(source).load()
            tables[table.fingerprint()] = table
    for key in keys:
        table = tables.get(key[0])
        if table is None:
            fail(f"run-store record {key[1:]} matches no load-phase source")
        if store.get(key, table) is None:
            fail(f"run-store record {key[1:]} does not reopen against its source")
    print(
        f"run store: {len(keys)} records, no temp directories, every record "
        "reopens against its source"
    )


def phase_privacy(base_url: str) -> None:
    """Submit a slice of jobs under non-default privacy specs; verify each."""
    client = Client(
        base_url, client_id="privacy", retries=30, backoff_seconds=0.05, timeout=60.0
    )
    models = {entry["name"] for entry in client.privacy_models()}
    expected = set(privacy_registry.names())
    if models != expected:
        fail(f"GET /v1/privacy listed {sorted(models)}, expected {sorted(expected)}")
    source = {"kind": "synthetic", "dataset": "SAL", "n": 600, "seed": 11,
              "dimension": 3}
    verified = 0
    for payload in PRIVACY_SPECS:
        spec = privacy_from_dict(payload)
        record, result = client.submit_and_wait(
            timeout=120.0, source=source, algorithm="TP", privacy=payload
        )
        if record["status"] != "done":
            fail(f"privacy job {record['id']} ended {record['status']}")
        if result["privacy"] != spec.to_dict():
            fail(
                f"{record['id']}: result echoed privacy {result['privacy']!r}, "
                f"expected {spec.to_dict()!r}"
            )
        qi_width = len(result["header"]) - 1
        if not rows_satisfy_spec(result["rows"], qi_width, spec):
            fail(f"{record['id']}: returned table violates {spec.describe()}")
        verified += 1
    # a check-only model must be rejected at submission time
    try:
        client.submit(source=source, privacy={"kind": "t-closeness", "t": 0.2})
    except ClientError as error:
        if error.status != 400:
            fail(f"t-closeness submission got HTTP {error.status}, expected 400")
    else:
        fail("t-closeness submission was accepted; it is check-only")
    print(
        f"privacy: {verified} spec jobs verified with their matching checkers, "
        "check-only t-closeness rejected with 400"
    )


def render_csv(generalized) -> str:
    """The published table rendered row by row from its decoded records —
    independent of the server's artifact renderer (TP+ publishes stars and
    exact values only, so every cell is ``str`` of its decoded value)."""
    schema = generalized.schema
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(schema.qi_names) + [schema.sensitive.name])
    for row in range(len(generalized)):
        writer.writerow([str(value) for value in generalized.decoded_record(row).values()])
    return buffer.getvalue()


def phase_result_artifacts(base_url: str) -> None:
    """Zero-copy artifact serving: byte-identical to an independent render,
    cached on repeat fetches."""
    from repro.engine import Engine, ResultCache, RunPlan, SyntheticSource

    client = Client(
        base_url, client_id="artifact", retries=30, backoff_seconds=0.05, timeout=120.0
    )
    source = {"kind": "synthetic", "dataset": "SAL", "n": ARTIFACT_N, "seed": 0,
              "dimension": 3}
    started = time.perf_counter()
    job_id = client.submit(source=source, l=ARTIFACT_L, algorithm="TP+")
    client.wait(job_id, timeout=240.0)
    served_csv = client.result_csv(job_id)
    served_seconds = time.perf_counter() - started

    reader = csv.reader(io.StringIO(served_csv))
    header = next(reader)
    rows = list(reader)
    if len(rows) != ARTIFACT_N:
        fail(f"artifact CSV carries {len(rows)} rows, expected {ARTIFACT_N}")
    if not rows_l_diverse(rows, len(header) - 1, ARTIFACT_L):
        fail(f"artifact-served table violates {ARTIFACT_L}-diversity")
    report = Engine(cache=ResultCache()).run(
        RunPlan(
            source=SyntheticSource(dataset="SAL", n=ARTIFACT_N, seed=0, dimension=3),
            algorithm="TP+",
            l=ARTIFACT_L,
            workers=1,
        )
    )
    if render_csv(report.generalized) != served_csv:
        fail("artifact-served CSV is not byte-identical to the independent render")

    before = parse_prometheus_text(client.telemetry_text())
    renders = metric(before, "repro_result_renders_total", format="csv")
    hits = metric(before, "repro_result_cache_hits_total", format="csv")
    if client.result_csv(job_id) != served_csv:
        fail("repeat result_csv fetch returned different bytes")
    after = parse_prometheus_text(client.telemetry_text())
    if metric(after, "repro_result_renders_total", format="csv") != renders:
        fail("repeat result_csv fetch re-rendered instead of hitting the cache")
    if metric(after, "repro_result_cache_hits_total", format="csv") != hits + 1:
        fail("repeat result_csv fetch did not count as a render-cache hit")
    if metric(after, "repro_result_artifact_bytes") <= 0:
        fail("repro_result_artifact_bytes gauge never saw the resident artifact")
    print(
        f"result artifacts: {ARTIFACT_N} rows served in {served_seconds:.2f}s "
        "(bytes identical to the independent render), repeat fetch cache-hit "
        "with no re-render"
    )


def metric(samples: dict, name: str, **labels) -> float:
    """Value of one exposition sample (0.0 when the series never appeared)."""
    return samples.get((name, tuple(sorted(labels.items()))), 0.0)


def phase_telemetry(probe: Client, before: dict) -> None:
    """Scrape /v1/telemetry after the run: counters moved, trace complete."""
    after = parse_prometheus_text(probe.telemetry_text())

    # Requests: every phase above went through HTTP, so the all-series sum
    # of the request counter must have grown substantially.
    def requests_total(samples: dict) -> float:
        return sum(
            value
            for (name, _), value in samples.items()
            if name == "repro_http_requests_total"
        )

    if requests_total(after) <= requests_total(before):
        fail("repro_http_requests_total did not move across the load run")
    submitted = metric(after, "repro_jobs_submitted_total") - metric(
        before, "repro_jobs_submitted_total"
    )
    if submitted < 1:
        fail("repro_jobs_submitted_total did not move across the load run")
    if metric(after, "repro_jobs_rejected_total", reason="queue_full") < 1:
        fail("phase 3's queue-full rejections never reached the telemetry registry")
    if metric(after, "repro_jobs_terminal_total", state="cancelled") < 1:
        fail("phase 3's cancellations never reached the telemetry registry")

    # Telemetry and /v1/health must tell the same story (one source of truth).
    jobs = probe.health()["jobs"]
    for health_key, name, labels in (
        ("submitted", "repro_jobs_submitted_total", {}),
        ("done", "repro_jobs_terminal_total", {"state": "done"}),
        ("rejected_queue_full", "repro_jobs_rejected_total", {"reason": "queue_full"}),
        ("store_hits", "repro_store_hits_total", {}),
    ):
        if jobs[health_key] != metric(after, name, **labels):
            fail(
                f"health jobs[{health_key!r}]={jobs[health_key]} disagrees with "
                f"telemetry {name}{labels or ''}={metric(after, name, **labels)}"
            )

    # Fixed job: a workload no other phase used (so it cannot be a store
    # hit) must leave a complete span tree behind, keyed by the request id
    # the client minted.
    job_id = probe.submit(
        source={"kind": "synthetic", "dataset": "SAL", "n": 150, "seed": 909,
                "dimension": 2},
        l=2,
        algorithm="TP",
    )
    minted = probe.last_request_id
    probe.wait(job_id, timeout=120.0)
    trace = probe.trace(job_id)
    if trace["request_id"] != minted:
        fail(
            f"trace of {job_id} carries request id {trace['request_id']!r}, "
            f"client minted {minted!r}"
        )
    spans = {span["name"] for span in trace["spans"]}
    expected = {"submit", "queue-wait", "attempt-1", "publish"}
    if not expected <= spans:
        fail(f"trace of {job_id} is missing spans {sorted(expected - spans)}")
    problems = grafted_problems(trace["spans"], "attempt-1", "engine:")
    if problems:
        fail(f"engine tree of {job_id} is not nested under attempt-1: {problems}")
    print(
        f"telemetry: {requests_total(after):.0f} requests scraped, "
        f"{submitted:.0f} submissions counted, trace of {job_id} complete "
        f"({len(trace['spans'])} spans, request {minted[:8]}…)"
    )


def phase_backpressure(base_url: str) -> None:
    """Burst slow jobs past the queue cap; demand a 429 with Retry-After."""
    burst = Client(base_url, client_id="burst", retries=0)
    accepted: list[str] = []
    saw_429 = False
    saw_retry_after = False
    body = json.dumps(
        {
            "source": {"kind": "synthetic", "dataset": "SAL", "n": BURST_N, "seed": 5},
            "l": 4,
            "algorithm": "TP",
        }
    ).encode()
    for _ in range(BURST_JOBS):
        request = urllib.request.Request(
            f"{base_url}/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json", "X-Client-Id": "burst"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                accepted.append(json.loads(response.read())["id"])
        except urllib.error.HTTPError as error:
            error.read()
            if error.code != 429:
                fail(f"burst submission got HTTP {error.code}, expected 429")
            saw_429 = True
            if error.headers.get("Retry-After"):
                saw_retry_after = True
    if not saw_429:
        fail(f"{BURST_JOBS} burst jobs never hit the {QUEUE_CAP}-deep queue cap (no 429)")
    if not saw_retry_after:
        fail("429 responses did not carry a Retry-After header")
    # Free the queue: cancel everything still queued, let the rest finish.
    cancelled = 0
    for job_id in accepted:
        try:
            burst.cancel(job_id)
            cancelled += 1
        except ClientError:
            pass  # already running or done; cancellation is queued-only
    for job_id in accepted:
        status = burst.status(job_id)["status"]
        if status not in ("done", "failed", "cancelled"):
            try:
                burst.wait(job_id, timeout=180.0, poll_seconds=0.2)
            except Exception:  # noqa: BLE001 - failed burst jobs are fine here
                pass
    print(
        f"backpressure: {len(accepted)} accepted, "
        f"{BURST_JOBS - len(accepted)} rejected with 429 (Retry-After set), "
        f"{cancelled} cancelled"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=200, help="total jobs in phase 1")
    parser.add_argument(
        "--base-url", default=None, help="target an already-running server instead"
    )
    arguments = parser.parse_args()
    if arguments.clients < 1 or arguments.jobs < arguments.clients:
        parser.error("need at least one client and one job per client")

    process: subprocess.Popen | None = None
    workspace = tempfile.mkdtemp(prefix="load-smoke-ws-")
    base_url = arguments.base_url
    started = time.perf_counter()
    try:
        if base_url is None:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0",
                    "--workers", str(WORKERS),
                    "--queue-cap", str(QUEUE_CAP),
                    "--workspace", workspace,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            assert process.stdout is not None
            boot_line = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", boot_line)
            if match is None:
                process.kill()
                fail(f"server did not announce an address: {boot_line!r}")
            base_url = f"http://{match.group(1)}:{match.group(2)}"
        probe = Client(base_url, client_id="probe")
        health = probe.wait_until_ready(timeout=20.0)
        print(f"server ready at {base_url} (version {health['version']})")
        telemetry_before = parse_prometheus_text(probe.telemetry_text())

        per_client = arguments.jobs // arguments.clients
        workloads = workload_set()
        workers = [
            ClientWorker(index, base_url, per_client, workloads)
            for index in range(arguments.clients)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=600)
            if worker.is_alive():
                fail(f"client {worker.index} did not finish within the deadline")
        errors = [error for worker in workers for error in worker.errors]
        if errors:
            fail("; ".join(errors[:5]))
        completed = sum(worker.completed for worker in workers)
        store_hits = sum(worker.store_hits for worker in workers)
        absorbed = sum(worker.client.backpressure_events for worker in workers)
        elapsed = time.perf_counter() - started
        if completed != per_client * arguments.clients:
            fail(f"only {completed} of {per_client * arguments.clients} jobs completed")
        if completed < 200 and arguments.jobs >= 200:
            fail(f"acceptance requires >= 200 completed jobs, got {completed}")
        if store_hits < 1:
            fail("no submission was ever served from the persistent run store")
        print(
            f"throughput: {completed} jobs across {arguments.clients} clients "
            f"in {elapsed:.1f}s ({completed / elapsed:.1f} jobs/s), "
            f"{store_hits} store hits ({100.0 * store_hits / completed:.0f}%), "
            f"{absorbed} backpressure responses absorbed by retries"
        )

        if process is not None:  # the workspace is ours only when we booted the server
            phase_run_store(workspace, workloads)

        phase_privacy(base_url)

        phase_result_artifacts(base_url)

        phase_backpressure(base_url)

        phase_telemetry(probe, telemetry_before)

        health = probe.health()
        jobs = health["jobs"]
        if jobs["rejected_queue_full"] < 1:
            fail("server health never counted a queue-full rejection")
        if jobs["store_hits"] < 1:
            fail("server health never counted a store hit")
        print(f"health counters: {jobs}")

        if process is not None:
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
            if process.returncode != 0:
                fail(f"server exited {process.returncode} on SIGTERM:\n{output}")
            print("clean shutdown on SIGTERM (exit code 0)")
            process = None
        print("OK: load smoke passed")
    except BackpressureError as error:
        fail(f"client retry budget exhausted: {error}")
    finally:
        if process is not None:
            # SIGTERM first: a SIGKILLed server cannot reap its pool workers,
            # which would outlive the smoke blocked on the inherited call queue.
            process.send_signal(signal.SIGTERM)
            try:
                process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate(timeout=10)


if __name__ == "__main__":
    main()
