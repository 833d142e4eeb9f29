"""The ``serve-mixed`` workload: two closed-loop clients against ``ldiversity serve``.

One server process with one pool worker (``--workers 1``), a fresh workspace
per run and ``--data-dir`` pointing at the run's inputs.  Each of the two
client threads follows a fixed sequence of cycles of eight jobs, drawn from
the run's seed:

* positions 0-6 upload a 5,000-row CSV body (TP+, l=4);
* position 7 names a 10^5-row CSV under ``--data-dir`` (TP+, l=6); at about
  8.9 MB it is over the 8 MiB upload cap.  The clients start together, so
  their 10^5-row jobs meet in the queue and most 5,000-row jobs wait behind
  one 5,000-row job; staggering them made the median twice as noisy;
* two jobs of every cycle repeat an input the same client sent before —
  position 2 always, position 5 in even cycles and the 10^5-row job in odd
  cycles — so one submission in four is a run-store hit.

An op runs from the start of submit until the CSV result is fully received
(``Client.submit`` → ``Client.wait`` with a fixed poll → ``Client.result_csv``).
Each client runs the same number of whole cycles, so every run does the
same work.  Outputs are checked after the load phase, so checking does not
slow the closed loop.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from inputs import csv_text, make_table, table_meta, write_csv
from layers import Op, layer_values, replay_engine
from oracle import CheckError, check_csv
from pins import PinError, Pins
from recorder import OpTally, Recorder, median

CLIENTS = 2
CYCLE = 8
SMALL = ("upload-5k", 5_000, 4)
BIG = ("source-100k", 100_000, 6)
POLL_SECONDS = 0.02
#: Server boots per run; ``setup_s`` is their median.
BOOTS = 3
#: execute_job replays per job kind in a traced run.
REPLAYS = 3
#: Seconds the clients get to finish all their jobs.
LOAD_DEADLINE = 120.0


@dataclass
class Job:
    kind: str
    rows: int
    l: int
    key: str
    repeat: bool


@dataclass
class Outcome:
    job: Job
    seconds: float = 0.0
    end: float = 0.0
    job_id: str = ""
    record: dict = field(default_factory=dict)
    text: str = ""
    error: str = ""
    timed_out: bool = False


def plan_jobs(seed: int, client: int, cycles: int) -> list[Job]:
    """The fixed job sequence of one client."""
    rng = random.Random(f"{seed}/{client}")
    jobs: list[Job] = []
    smalls: list[str] = []
    big = ""
    for cycle in range(cycles):
        for position in range(CYCLE):
            if position == CYCLE - 1:
                repeat = cycle % 2 == 1
                if not repeat:
                    big = f"c{client}-big{cycle}"
                jobs.append(Job(BIG[0], BIG[1], BIG[2], big, repeat))
            elif position == 2 or (position == 5 and cycle % 2 == 0):
                jobs.append(Job(SMALL[0], SMALL[1], SMALL[2], rng.choice(smalls), True))
            else:
                smalls.append(f"c{client}-small{len(smalls)}")
                jobs.append(Job(SMALL[0], SMALL[1], SMALL[2], smalls[-1], False))
    return jobs


class Server:
    """One ``ldiversity serve`` process in its own process group."""

    def __init__(self, workspace: Path, data_dir: Path, log: Path) -> None:
        self.log = log
        started = time.perf_counter()
        with open(log, "w") as handle:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                    "--workers", "1", "--workspace", str(workspace),
                    "--data-dir", str(data_dir),
                ],
                stdout=handle,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        try:
            self.url = self._wait_for_url(deadline=started + 30)
            self._wait_for_health(deadline=started + 30)
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - started

    def _wait_for_url(self, deadline: float) -> str:
        while time.perf_counter() < deadline:
            match = re.search(r"serving on (http://[\d.]+:\d+)", self.log.read_text())
            if match:
                return match.group(1)
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not announce its address:\n{self.log.read_text()}")

    def _wait_for_health(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(self.url + "/v1/health", timeout=5) as response:
                    if response.status == 200:
                        return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /v1/health")

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS of the server and every process below it."""
        children: dict[int, list[int]] = {}
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                children.setdefault(int(fields[1]), []).append(int(entry.name))
        total_kb, pending = 0, [self.process.pid]
        while pending:
            pid = pending.pop()
            pending.extend(children.get(pid, []))
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            total_kb += int(match.group(1)) if match else 0
        return total_kb / 1024

    def stop(self) -> None:
        """SIGTERM (clean drain), then SIGKILL the whole group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()


class Inputs:
    """Every input a run's job plans name, made before the load starts."""

    def __init__(self, seed: int, plans: list[list[Job]], data_dir: Path) -> None:
        self.texts: dict[str, str] = {}
        self.paths: dict[str, Path] = {}
        self.metas: dict[str, dict] = {}
        for job in (job for plan in plans for job in plan if not job.repeat):
            variant = len(self.metas)
            if job.kind == BIG[0]:
                table = make_table(job.rows, seed, variant)
                self.paths[job.key] = data_dir / f"{job.key}.csv"
                write_csv(table, self.paths[job.key])
                self.metas[job.key] = table_meta(table)
            else:
                self.texts[job.key], self.metas[job.key] = csv_text(job.rows, seed, variant)


def run_job(client, job: Job, inputs: Inputs, rec: Recorder, deadline: float) -> Outcome:
    meta = inputs.metas[job.key]
    outcome = Outcome(job)
    started = time.perf_counter()
    try:
        with rec.span("op", op=job.kind):
            with rec.span("http.submit"):
                if job.key in inputs.texts:
                    outcome.job_id = client.submit(
                        csv_text=inputs.texts[job.key], qi=meta["qi"], sa=meta["sa"],
                        l=job.l, algorithm="TP+",
                    )
                else:
                    source = {"kind": "csv", "path": inputs.paths[job.key].name,
                              "qi": meta["qi"], "sa": meta["sa"]}
                    outcome.job_id = client.submit(source=source, l=job.l, algorithm="TP+")
            with rec.span("client.wait"):
                outcome.record = client.wait(
                    outcome.job_id, timeout=deadline, poll_seconds=POLL_SECONDS
                )
            with rec.span("http.result_csv"):
                outcome.text = client.result_csv(outcome.job_id)
    except TimeoutError as error:
        outcome.error, outcome.timed_out = str(error), True
    except Exception as error:  # noqa: BLE001 - a failed job is reported, the run goes on
        outcome.error = f"{type(error).__name__}: {error}"
    outcome.end = time.perf_counter()
    outcome.seconds = outcome.end - started
    return outcome


def lane(index: int, url: str, jobs: list[Job], inputs: Inputs, rec: Recorder,
         parent, deadline: float, outcomes: list[Outcome]) -> None:
    """One client thread: its jobs in order, with no think time."""
    from repro.client import Client

    client = Client(url, client_id=f"bench-{index}", timeout=deadline)
    if rec.enabled:
        status = client.status

        def traced_status(job_id: str) -> dict:
            with rec.span("http.status"):
                return status(job_id)

        client.status = traced_status
    with rec.span(f"client-{index}", parent=parent):
        for job in jobs:
            outcome = run_job(client, job, inputs, rec, deadline)
            outcomes.append(outcome)
            if outcome.timed_out:
                return  # the single pool worker is stuck; later jobs would queue behind it


def run(seed: int, cycles: int, rec: Recorder, work: Path, pins: Pins, deadline: float) -> dict:
    """Run ``cycles`` cycles per client; returns the outcome ``run.py`` reports."""
    from repro.client import Client
    from repro.obs.metrics import parse_prometheus_text

    data_dir = work / "data"
    data_dir.mkdir()
    plans = [plan_jobs(seed, client, cycles) for client in range(CLIENTS)]
    inputs = Inputs(seed, plans, data_dir)

    boots, server = [], None
    with rec.span("setup"):
        for boot in range(BOOTS):
            if server is not None:
                server.stop()
            with rec.span("server.boot"):
                server = Server(work / f"workspace-{boot}", data_dir, work / f"server-{boot}.log")
            boots.append(server.boot_seconds)
    outcomes: list[Outcome] = []
    try:
        load_started = time.perf_counter()
        with rec.span("load", lanes=True) as load_span:
            threads = [
                threading.Thread(
                    target=lane,
                    args=(index, server.url, plans[index], inputs, rec, load_span,
                          deadline, outcomes),
                    daemon=True,
                )
                for index in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=LOAD_DEADLINE)
            stuck = sum(thread.is_alive() for thread in threads)
        with rec.span("collect"):
            peak_rss_mb = server.peak_rss_mb()
            server_spans, telemetry = {}, {}
            if rec.enabled:
                probe = Client(server.url, client_id="bench-probe")
                for outcome in outcomes:
                    if outcome.record:
                        server_spans[outcome.job_id] = probe.trace(outcome.job_id)["spans"]
                telemetry = parse_prometheus_text(probe.telemetry_text())
    finally:
        with rec.span("shutdown"):
            server.stop()

    tally, stars, rows, op_seconds = OpTally(), 0, 0, []
    tally.timed_out = stuck  # a client still inside a job when the load deadline passed
    with rec.span("check"):
        for outcome in outcomes:
            if outcome.timed_out:
                tally.timed_out += 1
                continue
            try:
                if outcome.error:
                    raise CheckError(outcome.error)
                job_stars = check_csv(outcome.text, inputs.metas[outcome.job.key], outcome.job.l)
                if outcome.record["stars"] != job_stars:
                    raise CheckError(f"record claims {outcome.record['stars']} stars, {job_stars} published")
                pins.check(f"serve-mixed/seed{seed}/{outcome.job.key}", job_stars)
            except (CheckError, PinError) as error:
                print(f"serve-mixed: {outcome.job.key}: {error}", file=sys.stderr)
                tally.failed += 1
                continue
            tally.passed += 1
            stars += job_stars
            rows += outcome.job.rows
            op_seconds.append(outcome.seconds)
            outcome.text = ""
    load_seconds = max((outcome.end for outcome in outcomes), default=load_started) - load_started

    per_layer = {}
    if rec.enabled:
        with rec.span("replay"):
            replay(rec, plans, inputs, work)
        per_layer = serve_layers(rec, outcomes, server_spans, telemetry)
    return {
        "tally": tally,
        "rows": rows,
        "stars": stars,
        "op_seconds": op_seconds,
        "busy_seconds": load_seconds,
        "setup_seconds": boots,
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
    }


def replay(rec: Recorder, plans: list[list[Job]], inputs: Inputs, work: Path) -> None:
    """Run each job kind's first input through ``execute_job`` in-process
    (the pool worker's share), then replay the 10^5-row job's layers."""
    from repro.engine import CsvSource
    from repro.engine.columnstore import ResultArtifact
    from repro.server.pool import execute_job
    from repro.service.planner import per_job_worker_budget

    workers = per_job_worker_budget(1)  # what the server gives its one pool worker
    firsts = {}
    for job in plans[0]:
        firsts.setdefault(job.kind, job)
    for kind, job in firsts.items():
        meta = inputs.metas[job.key]
        path = inputs.paths.get(job.key)
        if path is None:
            path = work / f"{job.key}.csv"
            path.write_text(inputs.texts[job.key])
        for attempt in range(REPLAYS):
            spec = {
                "algorithm": "TP+", "l": job.l, "metrics": [], "shards": None,
                "backend": None, "seed": 0, "chunk_rows": None, "include_rows": True,
                "source": {"kind": "csv", "path": str(path), "qi": meta["qi"], "sa": meta["sa"]},
                "result_artifact": True, "job_id": f"replay-{kind}-{attempt}",
            }
            with rec.span("pool.execute_job", op=kind):
                execute_job(spec, str(work / "replay-workspace"), False, workers)
            if kind != BIG[0]:
                continue
            with rec.span("attribution", op=kind):
                with rec.span("sources.csv_load"):
                    table = CsvSource(str(path), tuple(meta["qi"]), meta["sa"]).load()
                generalized = replay_engine(rec, table, Op(kind, "TP+", job.l, workers=workers))
                artifact_dir = work / f"artifact-{attempt}"
                with rec.span("artifact.save") as span:
                    artifact = ResultArtifact.from_generalized(generalized)
                    span.attrs["bytes"] = artifact.save(artifact_dir)
                with rec.span("artifact.render"):
                    ResultArtifact.mmap(artifact_dir).csv_bytes()


def serve_layers(rec: Recorder, outcomes: list[Outcome], server_spans: dict, telemetry: dict) -> dict:
    values = layer_values(rec)
    done = [outcome for outcome in outcomes if outcome.record]
    values["client.polls_per_job"] = len(rec.seconds("http.status")) / max(len(done), 1)
    values["store.hit_ratio"] = sum(o.record["store_hit"] for o in done) / max(len(done), 1)

    def measured(outcome: Outcome, prefix: str) -> list[float]:
        # Only the server's measured lifecycle spans; never its engine:* ones.
        return [
            span["seconds"]
            for span in server_spans.get(outcome.job_id, [])
            if span["name"].startswith(prefix)
        ]

    values["pool.queue_wait_s"] = median([s for o in done for s in measured(o, "queue-wait")])
    for kind in (SMALL[0], BIG[0]):
        values[f"pool.attempt_s.{kind}"] = median(
            [s for o in done if o.job.kind == kind for s in measured(o, "attempt-")]
        )
    for hit, name in ((True, "store.hit_attempt_s"), (False, "store.miss_attempt_s")):
        values[name] = median(
            [
                s
                for o in done
                if o.job.kind == BIG[0] and o.record["store_hit"] == hit
                for s in measured(o, "attempt-")
            ]
        )

    def total(name: str) -> float:
        return sum(value for (sample, _), value in telemetry.items() if sample == name)

    values["pool.retries"] = total("repro_pool_retries_total")
    values["http.rejected_429"] = total("repro_jobs_rejected_total")
    return values
