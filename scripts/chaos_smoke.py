"""CI chaos smoke: the serving stack under injected crashes and a hard restart.

Boots the server through the launcher in ``tests/fault_plan.py``, which
starts it exactly as ``ldiversity serve`` does but hands its pool a job
function wrapped with a fixed :class:`FaultPlan` (workers killed every Nth
job, a poison seed that dies on every attempt, delayed seeds that trip the
per-job timeout).  The plan travels as the launcher's first argument.  The
smoke then proves the at-least-once contract end to end:

1. **worker-death recovery** — ~100 jobs stream in from 4 client threads
   while the fault plan keeps killing pool worker processes; the pool must
   rebuild itself (``pool_restarts``) and retry the dead attempts
   (``retries``) with every job still reaching ``done``;
2. **SIGKILL restart replay** — once recovery is observably underway and a
   job the plan holds ``running`` (seed ``HOLD_SEED``) has started, the
   whole server process group is SIGKILL'd (no shutdown hooks, like an OOM
   kill) and a fresh server boots on the same port and workspace; it must
   compact the ledger, re-enqueue every non-terminal job (``replayed``, the
   held job among them, which must then reach ``done``), and
   the client threads — who only see a connection outage — must still
   complete every job, and right after the kill every ``results/<job_id>``
   directory must open with ``ResultArtifact.mmap`` or be a publish temp;
3. **quarantine** — a poison job (seed on the plan's kill list, so every
   attempt dies) must land terminally ``failed`` with ``quarantined: true``
   after exactly ``--max-attempts`` attempts, not crash-loop the pool;
4. **timeout-then-succeed** — a delayed job wedges past ``--job-timeout``;
   the attempt is killed (``timeouts``), the clean retry completes;
5. **no job left behind** — at the end, every ledger record is terminal
   (nothing stuck ``queued``/``running``/``retrying``) and each distinct
   ``done`` workload re-verifies against its PrivacySpec from the run store;
6. **telemetry** — ``GET /v1/telemetry`` is scraped before and after the
   fault phases: the retry/quarantine/timeout counters must have moved, the
   final exposition must agree with ``/v1/health`` number for number, and
   the timed-out job's trace must hold every expected span (both attempts,
   the engine stages of the clean retry, publish);
7. **clean shutdown** — the second server exits 0 on SIGTERM;
8. **killed conversion** — before the server phases, an ``ldiversity
   anonymize --mmap`` child is SIGKILL'd while it converts a CSV over its
   existing ``<input>.colstore``: the old store must still open with its old
   fingerprint, and a rerun must succeed and sweep the dead staging directory.

Exit code 0 on success, 1 on any violation.  The temp workspace is removed
when the smoke passes and kept, with its path printed, when it fails::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

from repro.client import Client, ClientError, JobFailedError
from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine import ColumnStore
from repro.engine.columnstore import ResultArtifact, is_temp
from repro.errors import DataSourceError
from repro.obs.metrics import parse_prometheus_text
from repro.obs.trace import grafted_problems
from repro.privacy.spec import privacy_from_dict

WORKERS = 2
QUEUE_CAP = 32
MAX_ATTEMPTS = 5
JOB_TIMEOUT = 2.5
RETRY_BACKOFF = 0.1
KILL_EVERY = 15
#: Rows of the CSV whose ``--mmap`` conversion is killed (about a second).
CONVERT_ROWS = 300_000
POISON_SEED = 666
DELAY_SEEDS = (777, 778, 779)
#: The job held ``running`` (for ``HOLD_SECONDS``, under ``JOB_TIMEOUT``)
#: while server 1 is SIGKILL'd, so server 2 always has a job to replay.
HOLD_SEED = 888
HOLD_SECONDS = JOB_TIMEOUT - 1.0
#: Boots the server with a fault plan (see ``tests/fault_plan.py``).
LAUNCHER = Path(__file__).resolve().parents[1] / "tests" / "fault_plan.py"


def fail(message: str, log_paths: list[Path] | None = None) -> None:
    print(f"FAIL: {message}")
    for path in log_paths or []:
        if path.exists():
            tail = path.read_text().splitlines()[-25:]
            print(f"--- {path.name} (tail) ---")
            print("\n".join(tail))
    sys.exit(1)


def rows_satisfy_spec(rows: list[list[str]], qi_width: int, spec) -> bool:
    """Independent re-check of a returned table (last column = SA)."""
    histograms: dict[tuple, Counter] = {}
    total: Counter = Counter()
    for row in rows:
        histograms.setdefault(tuple(row[:qi_width]), Counter())[row[qi_width]] += 1
        total[row[qi_width]] += 1
    if not histograms:
        return False
    return all(spec.check(histogram, total) for histogram in histograms.values())


def pick_port() -> int:
    """Reserve an ephemeral port both server instances will bind in turn."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def workload_set() -> list[dict]:
    """Distinct synthetic submissions (seeds disjoint from the fault seeds)."""
    workloads = []
    for index, (l, n, algorithm) in enumerate(
        [
            (2, 200, "TP"), (2, 250, "TP+"), (3, 300, "TP"), (3, 240, "TP+"),
            (4, 400, "TP"), (4, 320, "Hilbert"), (2, 280, "Mondrian"),
            (3, 360, "TP+"), (5, 380, "TP"), (2, 220, "TP+"),
            (4, 260, "TP"), (3, 340, "Hilbert"),
        ]
    ):
        workloads.append(
            {
                "source": {"kind": "synthetic", "dataset": "SAL", "n": n,
                           "seed": index + 1, "dimension": 3},
                "l": l,
                "algorithm": algorithm,
                "seed": index + 1,
            }
        )
    return workloads


class ChaosWorker(threading.Thread):
    """One synthetic user who keeps working straight through the chaos."""

    def __init__(self, index: int, base_url: str, jobs: int, workloads: list[dict]):
        super().__init__(daemon=True)
        self.index = index
        # Generous budgets: submissions and polls must survive the dead
        # window between SIGKILL and the replacement server's bind.
        self.client = Client(
            base_url,
            client_id=f"chaos-{index}",
            retries=60,
            backoff_seconds=0.05,
            max_backoff_seconds=0.5,
            timeout=60.0,
            jitter_seed=index,
        )
        self.jobs = jobs
        self.workloads = workloads
        self.completed = 0
        self.retried_jobs = 0
        self.errors: list[str] = []

    def _verify(self, job_id: str, workload: dict) -> bool:
        try:
            result = self.client.result(job_id)
        except ClientError as error:
            if error.status == 404:
                # Done before the restart: the result is no longer resident in
                # server memory.  Resubmitting the identical workload answers
                # from the persistent run store.
                replacement = self.client.submit(**workload)
                self.client.wait(replacement, timeout=120.0)
                result = self.client.result(replacement)
            else:
                raise
        spec = privacy_from_dict(result["privacy"])
        qi_width = len(result["header"]) - 1
        if not rows_satisfy_spec(result["rows"], qi_width, spec):
            self.errors.append(f"{job_id}: output violates {spec.describe()}")
            return False
        return True

    def run(self) -> None:
        for round_number in range(self.jobs):
            workload = self.workloads[(self.index + round_number) % len(self.workloads)]
            try:
                job_id = self.client.submit(**workload)
                record = self.client.wait(job_id, timeout=180.0)
                if int(record.get("attempts", 1)) > 1:
                    self.retried_jobs += 1
                if not self._verify(job_id, workload):
                    return
            except JobFailedError as error:
                # A job can only fail here by exhausting its attempt budget
                # on *collateral* crashes (each injected kill breaks the
                # whole process pool, taking the other in-flight job with
                # it).  Needing MAX_ATTEMPTS collateral hits on one job is
                # pathological, so it is an error, not tolerated noise.
                self.errors.append(f"collateral failure: {error}")
                return
            except Exception as error:  # noqa: BLE001 - collected, reported below
                self.errors.append(f"{type(error).__name__}: {error}")
                return
            self.completed += 1


def boot_server(port: int, workspace: str, plan: str, log_path: Path) -> subprocess.Popen:
    """Launch the server under ``plan`` in its own session (killpg reaches
    workers)."""
    log = open(log_path, "ab")
    return subprocess.Popen(
        [
            sys.executable, str(LAUNCHER), plan, "serve",
            "--port", str(port),
            "--workers", str(WORKERS),
            "--queue-cap", str(QUEUE_CAP),
            "--workspace", workspace,
            "--job-timeout", str(JOB_TIMEOUT),
            "--max-attempts", str(MAX_ATTEMPTS),
            "--retry-backoff", str(RETRY_BACKOFF),
        ],
        stdout=log,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )


def metric(samples: dict, name: str, **labels) -> float:
    """Value of one exposition sample (0.0 when the series never appeared)."""
    return samples.get((name, tuple(sorted(labels.items()))), 0.0)


def check_trace_of_timed_out_job(probe: Client, record: dict) -> None:
    """The retried job's span tree must narrate the whole episode."""
    job_id = record["id"]
    attempts = int(record["attempts"])
    trace = probe.trace(job_id)
    if trace["request_id"] != record["request_id"]:
        fail(
            f"trace of {job_id} carries request id {trace['request_id']!r}, "
            f"ledger says {record['request_id']!r}"
        )
    spans = {span["name"]: span for span in trace["spans"]}
    final_attempt = f"attempt-{attempts}"
    for name in ("submit", "queue-wait", "attempt-1", final_attempt, "publish"):
        if name not in spans:
            fail(f"trace of timed-out job {job_id} is missing span {name!r}")
    if spans["attempt-1"]["attributes"]["outcome"] != "retry":
        fail(f"attempt-1 of {job_id} did not record the retry outcome")
    if spans[final_attempt]["attributes"]["outcome"] != "done":
        fail(f"{final_attempt} of {job_id} did not record the done outcome")
    problems = grafted_problems(trace["spans"], final_attempt, "engine:")
    if problems:
        fail(f"engine tree of {job_id} is not nested under {final_attempt}: {problems}")
    print(
        f"trace: {job_id} narrates timeout -> retry -> done in "
        f"{len(trace['spans'])} spans (request {trace['request_id'][:8]}…)"
    )


def check_telemetry_agrees_with_health(probe: Client) -> None:
    """Acceptance: the exposition and /v1/health report the same numbers."""
    samples = parse_prometheus_text(probe.telemetry_text())
    health = probe.health()
    checks = [
        ("jobs.submitted", health["jobs"]["submitted"],
         metric(samples, "repro_jobs_submitted_total")),
        ("jobs.done", health["jobs"]["done"],
         metric(samples, "repro_jobs_terminal_total", state="done")),
        ("jobs.failed", health["jobs"]["failed"],
         metric(samples, "repro_jobs_terminal_total", state="failed")),
        ("jobs.replayed", health["jobs"]["replayed"],
         metric(samples, "repro_jobs_replayed_total")),
        ("pool.retries", health["pool"]["retries"],
         metric(samples, "repro_pool_retries_total")),
        ("pool.quarantined", health["pool"]["quarantined"],
         metric(samples, "repro_pool_quarantined_total")),
        ("pool.timeouts", health["pool"]["timeouts"],
         metric(samples, "repro_pool_timeouts_total")),
        ("pool.pool_restarts", health["pool"]["pool_restarts"],
         metric(samples, "repro_pool_restarts_total")),
        ("callback_errors", health["callback_errors"],
         metric(samples, "repro_pool_callback_errors_total")),
    ]
    for label, from_health, from_telemetry in checks:
        if from_health != from_telemetry:
            fail(
                f"health {label}={from_health} disagrees with the telemetry "
                f"exposition ({from_telemetry})"
            )
    print(
        "telemetry: exposition agrees with /v1/health on "
        f"{len(checks)} counters"
    )


def wait_for_condition(probe: Client, predicate, deadline_seconds: float, what: str):
    """Poll health until ``predicate(health)`` holds; returns the health dict."""
    deadline = time.monotonic() + deadline_seconds
    while True:
        try:
            health = probe.health()
            if predicate(health):
                return health
        except ClientError:
            pass
        if time.monotonic() >= deadline:
            fail(f"timed out waiting for {what}")
        time.sleep(0.25)


def check_conversion_kill(workspace: str) -> None:
    """SIGKILL an ``anonymize --mmap`` conversion over an existing store."""
    directory = Path(workspace) / "convert"
    directory.mkdir()
    csv_path = directory / "census.csv"
    make_sal(CONVERT_ROWS, seed=3, config=CensusConfig.scaled(0.24)).to_csv(str(csv_path))
    store = Path(f"{csv_path}.colstore")

    def command(qi: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli", "anonymize", "--input", str(csv_path),
                "--qi", qi, "--sa", "Income", "--l", "2", "--algorithm", "TP",
                "--mmap", "--no-store"]

    def run(qi: str, what: str) -> None:
        result = subprocess.run(command(qi), capture_output=True, text=True, timeout=300)
        if result.returncode != 0:
            fail(f"{what} exited {result.returncode}: {result.stderr[-2000:]}")

    def staging() -> list[Path]:
        return list(directory.glob(f".{store.name}.tmp-*"))

    run("Age,Gender", "the first --mmap run")
    fingerprint = ColumnStore.mmap(store).fingerprint()
    # Other columns make the next run convert again, over the existing store.
    victim = subprocess.Popen(command("Age,Gender,Race"), stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    while not staging() and victim.poll() is None and time.monotonic() < deadline:
        time.sleep(0.005)
    if victim.poll() is not None or not staging():
        fail("the --mmap conversion ended before it could be killed")
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    if ColumnStore.mmap(store).fingerprint() != fingerprint:
        fail("a killed conversion changed the existing column store")
    run("Age,Gender,Race", "the rerun after a killed conversion")
    if ColumnStore.mmap(store).schema.qi_names != ("Age", "Gender", "Race"):
        fail("the rerun did not convert the store over the requested columns")
    if staging():
        fail(f"staging directories left behind: {staging()}")
    print("conversion kill: the old store survived a SIGKILL'd --mmap conversion "
          "with its fingerprint; the rerun converted and swept the staging directory")
    shutil.rmtree(directory)


def check_result_artifacts(workspace: str, logs: list[Path]) -> None:
    """Every ``results/<job_id>`` the SIGKILL left opens whole, or is a
    publish temp (which the next publish of that job sweeps)."""
    results = Path(workspace) / "results"
    entries = sorted(results.iterdir()) if results.is_dir() else []
    torn = []
    for entry in entries:
        if is_temp(entry.name):
            continue
        try:
            ResultArtifact.mmap(entry)
        except DataSourceError as error:
            torn.append(f"{entry.name}: {error}")
    if torn:
        fail(f"SIGKILL left torn result artifacts: {torn[:3]}", logs)
    print(f"result artifacts: all {len(entries)} entries under results/ open or are temps")


def run(arguments: argparse.Namespace, workspace: str) -> None:
    check_conversion_kill(workspace)
    scratch = Path(workspace) / "fault-tokens"
    scratch.mkdir(parents=True, exist_ok=True)
    plan = json.dumps({
        "kill_every": KILL_EVERY,
        "kill_seeds": [POISON_SEED],
        "delay_seconds": JOB_TIMEOUT + 1.5,
        "delay_seeds": list(DELAY_SEEDS),
        "delay_once": True,
        "hold_seconds": HOLD_SECONDS,
        "hold_seeds": [HOLD_SEED],
        "scratch_dir": str(scratch),
    })
    port = pick_port()
    base_url = f"http://127.0.0.1:{port}"
    logs = [Path(workspace) / "server-1.log", Path(workspace) / "server-2.log"]
    started = time.perf_counter()
    process: subprocess.Popen | None = boot_server(port, workspace, plan, logs[0])
    counters_before_kill: dict = {}
    try:
        probe = Client(base_url, client_id="probe", retries=0, timeout=10.0)
        probe.wait_until_ready(timeout=30.0)
        print(f"server 1 ready at {base_url} (fault plan: {plan})")

        per_client = arguments.jobs // arguments.clients
        workers = [
            ChaosWorker(index, base_url, per_client, workload_set())
            for index in range(arguments.clients)
        ]
        for worker in workers:
            worker.start()

        # Let recovery become observable before pulling the plug: at least
        # one worker kill has been healed and a batch of jobs is done.  The
        # streamed jobs finish in milliseconds, so none of them is sure to be
        # in flight at the kill; the held job is, so the restarted server has
        # an unfinished ledger entry to replay.
        kill_floor = max(10, arguments.jobs // 4)

        def ready_to_kill(h: dict) -> bool:
            return h["pool"]["pool_restarts"] >= 1 and h["jobs"]["done"] >= kill_floor

        wait_for_condition(
            probe,
            ready_to_kill,
            deadline_seconds=180.0,
            what=f"{kill_floor} done jobs and a healed worker kill",
        )
        holder = Client(base_url, client_id="hold", retries=60, backoff_seconds=0.05,
                        max_backoff_seconds=0.5, timeout=60.0)
        held_id = holder.submit(
            l=2,
            algorithm="TP",
            seed=HOLD_SEED,
            source={"kind": "synthetic", "dataset": "SAL", "n": 200,
                    "seed": HOLD_SEED, "dimension": 3},
        )
        deadline = time.monotonic() + 60.0
        while holder.status(held_id)["status"] != "running":
            if time.monotonic() >= deadline:
                fail(f"held job {held_id} never started running", logs)
            time.sleep(0.02)
        health = probe.health()
        counters_before_kill = dict(health["pool"])
        print(
            f"pre-kill: {health['jobs']['done']} done, held job {held_id} running, "
            f"pool counters {counters_before_kill}"
        )

        os.killpg(process.pid, signal.SIGKILL)  # the whole group: server + workers
        process.wait(timeout=30)
        process = None
        check_result_artifacts(workspace, logs)
        print("server 1 SIGKILL'd mid-stream; booting replacement on the same port")

        process = boot_server(port, workspace, plan, logs[1])
        probe.wait_until_ready(timeout=30.0)
        health = probe.health()
        if health["jobs"]["replayed"] < 1:
            fail("restarted server replayed no ledger jobs", logs)
        print(
            f"server 2 ready: replayed {health['jobs']['replayed']} jobs, "
            f"compaction reclaimed {health['jobs']['compaction_reclaimed']} lines"
        )
        try:
            holder.wait(held_id, timeout=120.0)
        except JobFailedError as error:
            fail(f"held job {held_id} did not replay to done: {error}", logs)
        print(f"held job {held_id} replayed to done on server 2")

        for worker in workers:
            worker.join(timeout=420)
            if worker.is_alive():
                fail(f"client {worker.index} did not finish", logs)
        errors = [error for worker in workers for error in worker.errors]
        if errors:
            fail("; ".join(errors[:5]), logs)
        completed = sum(worker.completed for worker in workers)
        retried_jobs = sum(worker.retried_jobs for worker in workers)
        if completed != per_client * arguments.clients:
            fail(f"only {completed} of {per_client * arguments.clients} jobs completed")
        print(
            f"stream: {completed} jobs completed across the restart "
            f"({retried_jobs} visibly retried) in "
            f"{time.perf_counter() - started:.1f}s"
        )

        # Telemetry baseline for the fault phases below (server 2's registry
        # was born at the restart, so the stream already seeded it).
        telemetry_before = parse_prometheus_text(probe.telemetry_text())

        # Quarantine: the poison seed dies on every attempt, so the job must
        # fail terminally after exactly MAX_ATTEMPTS attempts.
        poison_client = Client(
            base_url, client_id="poison", retries=30, backoff_seconds=0.05
        )
        poison_id = poison_client.submit(
            l=2,
            algorithm="TP",
            seed=POISON_SEED,
            source={"kind": "synthetic", "dataset": "SAL", "n": 200,
                    "seed": POISON_SEED, "dimension": 3},
        )
        try:
            poison_client.wait(poison_id, timeout=120.0)
            fail(f"poison job {poison_id} completed; it should be quarantined")
        except JobFailedError as outcome:
            record = outcome.record
            if not record.get("quarantined"):
                fail(f"poison job failed without quarantine: {record.get('error')}")
            if int(record.get("attempts", 0)) != MAX_ATTEMPTS:
                fail(
                    f"poison job used {record.get('attempts')} attempts, "
                    f"expected {MAX_ATTEMPTS}"
                )
        print(
            f"quarantine: {poison_id} failed terminally after {MAX_ATTEMPTS} "
            "attempts (quarantined: true)"
        )

        # Timeout-then-succeed: submitted in a quiet pool so the wedged
        # attempt cannot be collateral-killed before the timeout fires.  The
        # backup seeds cover the (rare) kill_every collision on the first.
        for delay_seed in DELAY_SEEDS:
            record = poison_client.wait(
                poison_client.submit(
                    l=2,
                    algorithm="TP",
                    seed=delay_seed,
                    source={"kind": "synthetic", "dataset": "SAL", "n": 200,
                            "seed": delay_seed, "dimension": 3},
                ),
                timeout=120.0,
            )
            if record["status"] != "done" or int(record["attempts"]) < 2:
                fail(f"delayed job {record['id']} did not retry to done: {record}")
            if probe.health()["pool"]["timeouts"] >= 1:
                break
        else:
            fail("no delayed job ever tripped the per-job timeout", logs)
        print(f"timeout: {record['id']} timed out, retried, completed "
              f"(attempts={record['attempts']})")

        # The fault phases must be visible in the exposition deltas.
        telemetry_after = parse_prometheus_text(probe.telemetry_text())
        for name in (
            "repro_pool_retries_total",
            "repro_pool_quarantined_total",
            "repro_pool_timeouts_total",
        ):
            delta = metric(telemetry_after, name) - metric(telemetry_before, name)
            if delta < 1:
                fail(f"telemetry counter {name} never moved across the fault phases")

        check_trace_of_timed_out_job(poison_client, record)

        # No job left behind: every ledger record terminal.
        deadline = time.monotonic() + 60.0
        while True:
            stuck = [
                (record["id"], record["status"])
                for record in poison_client.jobs()
                if record["status"] not in ("done", "failed", "cancelled")
            ]
            if not stuck:
                break
            if time.monotonic() >= deadline:
                fail(f"jobs stuck non-terminal after the chaos: {stuck}", logs)
            time.sleep(0.25)
        ledger_records = poison_client.jobs()
        done_count = sum(1 for r in ledger_records if r["status"] == "done")
        print(
            f"sweep: {len(ledger_records)} ledger jobs all terminal "
            f"({done_count} done)"
        )

        # Spec verification: one result per distinct workload, re-answered
        # from the run store and independently re-checked.
        verifier = ChaosWorker(0, base_url, 0, [])
        verifier.client = poison_client
        for workload in workload_set():
            job_id = poison_client.submit(**workload)
            poison_client.wait(job_id, timeout=120.0)
            if not verifier._verify(job_id, workload):
                fail("; ".join(verifier.errors), logs)
        print(f"verify: {len(workload_set())} distinct workloads re-checked "
              "against their PrivacySpec")

        final = probe.health()["pool"]
        combined = {
            key: counters_before_kill.get(key, 0) + final.get(key, 0)
            for key in ("retries", "pool_restarts", "timeouts", "quarantined")
        }
        for key, floor in (
            ("retries", 1), ("pool_restarts", 1), ("timeouts", 1), ("quarantined", 1)
        ):
            if combined[key] < floor:
                fail(f"recovery counter {key} never moved: {combined}", logs)
        print(f"health counters across both servers: {combined}")

        check_telemetry_agrees_with_health(probe)

        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60)
        if process.returncode != 0:
            fail(f"server 2 exited {process.returncode} on SIGTERM", logs)
        process = None
        print(f"OK: chaos smoke passed in {time.perf_counter() - started:.1f}s")
    finally:
        if process is not None:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=10)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=96, help="total streamed jobs")
    arguments = parser.parse_args()
    workspace = tempfile.mkdtemp(prefix="chaos-smoke-ws-")
    try:
        run(arguments, workspace)
    except BaseException:
        print(f"workspace kept for inspection: {workspace}")
        raise
    shutil.rmtree(workspace)


if __name__ == "__main__":
    main()
