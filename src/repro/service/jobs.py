"""The job service: submit anonymization runs, persist their lifecycle.

``ldiversity jobs submit`` executes a run through the engine — with the
workspace's persistent :class:`~repro.service.store.RunStore` backing the
result cache — and records it in the workspace's ``jobs.jsonl`` ledger.
``jobs list`` / ``jobs show`` read the ledger back, so a sweep of CLI
invocations (or a server's worker pool) leaves an auditable history of what
ran, how it was planned, how long it took, and whether it was served from a
cache tier instead of recomputed.

Jobs move through a real state machine persisted as ledger transitions::

    queued -> running -> done | failed
              running -> retrying -> running   (worker death / job timeout)
    queued | running | retrying -> cancelled

``retrying`` is the at-least-once half of the durability contract: an
attempt that died with its worker (or outlived the per-job timeout) is
re-enqueued with backoff rather than failed, with :attr:`JobRecord.attempts`
counting attempt starts and :attr:`JobRecord.last_error` holding the latest
attempt's failure.  A job that exhausts :attr:`JobRecord.max_attempts` is
**quarantined**: it lands in the terminal ``failed`` state with
``quarantined=True``, so poison jobs (ones that reliably kill their worker)
cannot crash-loop the pool forever.

Each transition *appends* a full record for the job id; readers replay the
file and the **last record per id wins**, so the ledger doubles as a
transition history (:meth:`JobLedger.history`) while :meth:`JobLedger.list`
still shows one row per job.  :meth:`JobLedger.compact` rewrites the file to
just those latest records (the server runs it at boot).  The HTTP server
(:mod:`repro.server`) drives the full lifecycle asynchronously — including
replaying every non-terminal record it finds at boot, which is why the
submitted job *spec* is persisted on server records; the synchronous CLI
path writes the same transitions back to back.

The ledger is append-only JSONL, one record per line.  **Durability
policy:** an append is one write of one whole line, flushed to the
operating system but never synced to disk, so power loss can lose a
transition; a line torn by a crash is skipped on read and counted in
:attr:`JobLedger.recovered`.  Compaction goes through
:func:`~repro.engine.columnstore.publish`, so a crash leaves the old ledger
or the compacted one.
Writes are guarded by an advisory file lock (``fcntl.flock`` where
available) so concurrent submitters — e.g. the server's pool plus a CLI
``jobs submit`` against the same workspace — cannot race id allocation or
interleave a read-modify-append transition.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.engine.cache import ResultCache
from repro.engine.columnstore import publish
from repro.engine.core import Engine, RunPlan, RunReport
from repro.engine.sinks import CsvSink
from repro.service.workspace import Workspace

try:  # pragma: no cover - platform dependent
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback: best-effort appends
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.planner import ExecutionPlanner

__all__ = [
    "JobLedger", "JobRecord", "JobService", "JobStateError", "can_transition",
]

#: Every status a job can hold, in lifecycle order.
JOB_STATUSES = ("queued", "running", "retrying", "done", "failed", "cancelled")
#: Statuses a job never leaves.
TERMINAL_STATUSES = ("done", "failed", "cancelled")
#: Legal state transitions (from -> allowed targets).
_TRANSITIONS = {
    "queued": ("running", "failed", "cancelled"),
    "running": ("done", "failed", "cancelled", "retrying"),
    "retrying": ("running", "failed", "cancelled"),
}


class JobStateError(ValueError):
    """Raised on an illegal job state transition (e.g. cancelling a done job)."""


def can_transition(current: str, status: str) -> bool:
    """Whether a job in ``current`` may move to ``status`` (the lifecycle graph)."""
    return status in _TRANSITIONS.get(current, ())


@dataclass(frozen=True)
class JobRecord:
    """One job's state, as persisted in the workspace ledger."""

    id: str
    created: float
    status: str  # one of JOB_STATUSES
    label: str
    algorithm: str
    l: int
    #: Canonical dict encoding of the resolved privacy spec
    #: (:meth:`~repro.privacy.spec.PrivacySpec.to_dict`); empty on legacy
    #: records written before the PrivacySpec migration, which readers treat
    #: as the default frequency spec at ``l``.
    privacy: dict = field(default_factory=dict)
    #: Wall-clock time of the last transition (0.0 on legacy records).
    updated: float = 0.0
    #: Submitting client identity (server deployments; empty for the CLI).
    client: str = ""
    n: int = 0
    d: int = 0
    shards: int = 1
    workers: int = 1
    stars: int = 0
    suppressed_tuples: int = 0
    groups: int = 0
    seconds: float = 0.0
    cache_hit: bool = False
    store_hit: bool = False
    output: str = ""
    error: str = ""
    metric_values: dict = field(default_factory=dict)
    #: Attempt starts so far (0 before the first ``running`` transition).
    attempts: int = 0
    #: Attempt budget before the job is quarantined (0 on legacy/CLI records,
    #: meaning the writer had no retry machinery).
    max_attempts: int = 0
    #: The most recent *attempt* failure (``error`` stays the terminal one).
    last_error: str = ""
    #: ``True`` on a ``failed`` record whose attempt budget was exhausted by
    #: retryable failures — a poison job parked so it cannot crash-loop.
    quarantined: bool = False
    #: The server's job spec (:meth:`~repro.server.jobspec.JobSpec.to_json`),
    #: persisted so a restart can re-enqueue every non-terminal job (empty on
    #: CLI records, which run synchronously and are never replayed).
    spec: dict = field(default_factory=dict)
    #: Trace id of the submitting request (``X-Request-Id``) — the join key
    #: across client logs, server logs, spans and the engine's RunReport.
    request_id: str = ""

    def is_terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def summary_row(self) -> tuple[str, ...]:
        """The fixed-width row rendered by ``ldiversity jobs list``."""
        served = "store" if self.store_hit else ("memory" if self.cache_hit else "-")
        return (
            self.id,
            self.status,
            self.algorithm,
            str(self.l),
            str(self.n),
            str(self.stars),
            f"{self.seconds:.3f}",
            served,
            self.label,
        )


_FIELD_NAMES = {f.name for f in dataclasses.fields(JobRecord)}


class JobLedger:
    """Append-only JSONL ledger of job state transitions (last record per id wins)."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        #: Malformed lines skipped so far by this instance's reads.
        self.recovered = 0
        #: Incremental-replay state: latest record per id, and how many bytes
        #: of the file they already account for.  The ledger is append-only,
        #: so replaying just the tail is exact — a server submitting its
        #: 100_000th job must not re-parse the 99_999 before it.
        self._latest: dict[str, JobRecord] = {}
        self._offset = 0
        #: In-process guard over the replay state.  ``fcntl.flock`` only
        #: serializes *processes* (and only the write paths take it): two
        #: threads of one server sharing this instance would otherwise race
        #: ``_latest``/``_offset`` and corrupt the incremental replay.
        self._mutex = threading.Lock()

    @property
    def path(self) -> Path:
        return self._path

    # -------------------------------------------------------------- file I/O

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory exclusive lock over the ledger (no-op where unsupported).

        A sidecar ``.lock`` file is locked instead of the ledger itself so the
        lock's lifetime is independent of the append handle.
        """
        lock_path = self._path.with_suffix(".lock")
        with open(lock_path, "w") as handle:
            if fcntl is not None:
                fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(handle, fcntl.LOCK_UN)

    @staticmethod
    def _parse(line: str) -> JobRecord | None:
        """Parse one JSONL line; ``None`` for corrupt or malformed records.

        Unknown keys (from a newer writer) are dropped rather than fatal, the
        same forward-compatibility stance as the run store's ``_parse``.
        """
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(payload, dict):
            return None
        if not isinstance(payload.get("id"), str) or not payload["id"]:
            return None
        if payload.get("status") not in JOB_STATUSES:
            return None
        if not isinstance(payload.get("created"), (int, float)):
            return None
        known = {key: value for key, value in payload.items() if key in _FIELD_NAMES}
        try:
            return JobRecord(**known)
        except TypeError:
            return None

    def _replay(self) -> dict[str, JobRecord]:
        """Latest record per id, in first-appearance order (incremental).

        Only bytes appended since the previous call are parsed.  A trailing
        line without a newline is a concurrent writer's torn append: it is
        left unconsumed and picked up whole on the next read.  A file smaller
        than the consumed offset means the ledger was replaced underneath us;
        the replay restarts from scratch.
        """
        if not self._path.exists():
            self._latest = {}
            self._offset = 0
            return self._latest
        if self._path.stat().st_size < self._offset:
            self._latest = {}
            self._offset = 0
        with open(self._path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        if not data:
            return self._latest
        if not data.endswith(b"\n"):
            complete = data.rfind(b"\n") + 1  # 0 when no full line arrived yet
            data = data[:complete]
        self._offset += len(data)
        for line in data.decode("utf-8", "replace").splitlines():
            line = line.strip()
            if not line:
                continue
            record = self._parse(line)
            if record is None:
                self.recovered += 1
                continue
            self._latest[record.id] = record
        return self._latest

    def _append(self, record: JobRecord) -> None:
        with open(self._path, "a") as handle:
            handle.write(json.dumps(asdict(record), separators=(",", ":")) + "\n")

    def compact(self) -> int:
        """Rewrite the file to one (latest) record per job; returns the number
        of superseded/corrupt lines reclaimed.

        The ledger appends a full record per transition forever; a long-lived
        workspace pays that history on every cold replay.  Compaction keeps
        exactly the records :meth:`list` would return (published through
        :func:`~repro.engine.columnstore.publish`, under the advisory lock),
        discarding per-job transition history older than the compaction point.
        Run it only when no other *reader* is mid-stream (the server does so
        at boot, before serving): a concurrent incremental replayer would
        resume at a stale byte offset into the rewritten file.
        """
        with self._mutex, self._locked():
            if not self._path.exists():
                return 0
            latest: dict[str, JobRecord] = {}
            lines = 0
            with open(self._path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    lines += 1
                    record = self._parse(line)
                    if record is None:
                        self.recovered += 1
                        continue
                    latest[record.id] = record
            reclaimed = lines - len(latest)
            if reclaimed > 0:
                publish(self._path, lambda path: path.write_text("".join(
                    json.dumps(asdict(record), separators=(",", ":")) + "\n"
                    for record in latest.values()
                )))
            self._latest = latest
            self._offset = self._path.stat().st_size
            return max(reclaimed, 0)

    # ------------------------------------------------------------------- API

    def list(self) -> list[JobRecord]:
        """One (latest) record per job, oldest job first; corrupt lines skipped."""
        with self._mutex:
            return list(self._replay().values())

    def history(self, job_id: str) -> list[JobRecord]:
        """Every recorded transition of one job since the last compaction,
        oldest first (compaction keeps only each job's latest record)."""
        if not self._path.exists():
            return []
        transitions: list[JobRecord] = []
        with open(self._path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = self._parse(line)
                if record is not None and record.id == job_id:
                    transitions.append(record)
        return transitions

    def get(self, job_id: str) -> JobRecord:
        with self._mutex:
            record = self._replay().get(job_id)
        if record is None:
            raise KeyError(f"no job {job_id!r} in ledger {self._path}")
        return record

    def create(self, **fields) -> JobRecord:
        """Allocate the next id and append a fresh ``queued`` record, atomically."""
        with self._mutex, self._locked():
            numbers = [0]
            for job_id in self._replay():
                prefix, _, suffix = job_id.rpartition("-")
                if prefix == "job" and suffix.isdigit():
                    numbers.append(int(suffix))
            now = time.time()
            record = JobRecord(
                id=f"job-{max(numbers) + 1:04d}",
                created=now,
                updated=now,
                status="queued",
                **fields,
            )
            self._append(record)
        return record

    def transition(self, job_id: str, status: str, **updates) -> JobRecord:
        """Append the next state of one job, enforcing the lifecycle graph."""
        if status not in JOB_STATUSES:
            raise JobStateError(f"unknown job status {status!r}")
        with self._mutex, self._locked():
            current = self._replay().get(job_id)
            if current is None:
                raise KeyError(f"no job {job_id!r} in ledger {self._path}")
            if not can_transition(current.status, status):
                raise JobStateError(
                    f"job {job_id} is {current.status}; cannot move to {status}"
                )
            record = dataclasses.replace(
                current, status=status, updated=time.time(), **updates
            )
            self._append(record)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued or running job (terminal jobs raise :class:`JobStateError`)."""
        return self.transition(job_id, "cancelled")

    def put(self, record: JobRecord) -> JobRecord:
        """Append a full record that its writer already validated, unless the
        ledger ends that job terminally (say, after ``ldiversity jobs
        cancel``); returns the record the job now ends on."""
        with self._mutex, self._locked():
            current = self._replay().get(record.id)
            if current is not None and current.is_terminal():
                return current
            self._append(record)
        return record


class JobService:
    """Submits runs through the engine and persists their job lifecycle."""

    def __init__(
        self,
        workspace: Workspace | None = None,
        engine: Engine | None = None,
        planner: "ExecutionPlanner | None" = None,
    ) -> None:
        self.workspace = workspace if workspace is not None else Workspace()
        self.store = self.workspace.run_store()
        self.ledger = JobLedger(self.workspace.jobs_path)
        if engine is None:
            engine = Engine(cache=ResultCache(store=self.store), planner=planner)
        self.engine = engine

    # ----------------------------------------------------------------- ledger

    def list(self) -> list[JobRecord]:
        """Latest record of every job in the ledger, oldest first."""
        return self.ledger.list()

    def get(self, job_id: str) -> JobRecord:
        try:
            return self.ledger.get(job_id)
        except KeyError:
            raise KeyError(
                f"no job {job_id!r} in workspace {self.workspace.root}"
            ) from None

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued/running job (from e.g. a crashed or serving process)."""
        return self.ledger.cancel(job_id)

    # ----------------------------------------------------------------- submit

    def submit(
        self, plan: RunPlan, output: str | None = None, client: str = ""
    ) -> tuple[JobRecord, RunReport | None]:
        """Run one plan, optionally export the published table, record the job.

        The synchronous path still writes the full transition history
        (``queued -> running -> done|failed``) so ledgers populated by the CLI
        and by the async server are indistinguishable to readers.
        """
        spec = plan.resolved_privacy()
        record = self.ledger.create(
            label=plan.source.label,
            algorithm=plan.algorithm,
            l=plan.l,
            privacy=spec.to_dict(),
            client=client,
        )
        self.ledger.transition(record.id, "running")
        try:
            report = self.engine.run(plan)
        except Exception as error:
            self.ledger.transition(
                record.id, "failed", error=f"{type(error).__name__}: {error}"
            )
            raise
        if output:
            with CsvSink(output) as sink:
                sink.write_table(report.generalized)
        decision = report.decision
        record = self.ledger.transition(
            record.id,
            "done",
            n=report.n,
            d=report.d,
            shards=decision.shards if decision else 1,
            workers=decision.workers if decision else 1,
            stars=report.generalized.star_count(),
            suppressed_tuples=report.generalized.suppressed_tuple_count(),
            groups=len(report.generalized.groups()),
            seconds=report.seconds,
            cache_hit=report.cache_hit,
            store_hit=report.store_hit,
            output=output or "",
            metric_values=dict(report.metric_values),
        )
        return record, report
