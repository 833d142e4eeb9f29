"""The server's job table: the one writer of job state.

:class:`JobTable` holds the resident index (latest record and result of
recent jobs, evicting the oldest terminal ones with their artifacts), makes
every ledger write, and runs each move's effects (counters, log lines,
spans), listed per target status in :data:`EFFECTS`.

Moves are checked against the ledger's lifecycle graph
(:func:`~repro.service.jobs.can_transition`).  The resident record flips on
the event-loop thread before anything is awaited, so a job ``queued`` here
but unknown to the pool is in its submission window.  The full record is
then appended off the loop, in move order.  A failed append leaves memory
ahead; the next successful one catches the ledger up.  The ledger wins only
when it already holds another writer's terminal record (``ldiversity jobs
cancel``): the table adopts it, drops the result and skips the effects.
"""

from __future__ import annotations

import asyncio
import logging
import shutil
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, TraceStore
from repro.service.jobs import JobLedger, JobRecord, can_transition
from repro.service.workspace import Workspace

__all__ = ["EFFECTS", "JobTable", "Move"]

_LOG = logging.getLogger("repro.server")


@dataclass
class _Entry:
    record: JobRecord
    #: The worker's payload of a done job, and its rendered bodies by format.
    result: dict | None = None
    renders: dict = field(default_factory=dict)


@dataclass
class Move:
    """One accepted move, as its effects see it (``at``: time of the flip)."""

    record: JobRecord
    at: float
    error: str = ""
    attempts: int = 0
    retry_in: float = 0.0
    quarantined: bool = False
    #: The worker's span tree (done and failed moves).
    tree: Span | None = None
    #: ``False`` for a submission withdrawn before the pool saw it: it was
    #: never counted as submitted, so its cancellation is not counted either.
    counted: bool = True

    @property
    def job_id(self) -> str:
        return self.record.id

    @property
    def attempt_name(self) -> str:
        return f"attempt-{max(self.attempts, 1)}"

    def log_extra(self, outcome: str) -> dict:
        return {
            "job_id": self.job_id,
            "request_id": self.record.request_id,
            "outcome": outcome,
            "attempts": self.attempts,
            "error": self.error,
        }


# ------------------------------------------------------------------ effects


def _count_terminal(table: JobTable, move: Move) -> None:
    if move.counted:
        table.terminal.inc(state=move.record.status)


def _count_store_hit(table: JobTable, move: Move) -> None:
    if move.record.store_hit:
        table.store_hits.inc()


def _log_retry(table: JobTable, move: Move) -> None:
    _LOG.warning(
        "job %s attempt %d failed (%s); retrying in %.2fs",
        move.job_id, move.attempts, move.error, move.retry_in,
        extra=move.log_extra("retrying"),
    )


def _log_quarantine(table: JobTable, move: Move) -> None:
    if move.quarantined:
        _LOG.error(
            "job %s quarantined: %s", move.job_id, move.error,
            extra=move.log_extra("quarantined"),
        )


def _queue_wait_span(table: JobTable, move: Move) -> None:
    """Enqueue (or retry re-queue) -> attempt start; marks the attempt."""
    queued_at = table.traces.mark_at(move.job_id, "queued")
    if queued_at is not None:
        span = Span("queue-wait", start=queued_at, seconds=move.at - queued_at)
        table.traces.add(move.job_id, span)
    table.traces.mark(move.job_id, "attempt", move.at)


def _attempt_span(table: JobTable, move: Move) -> None:
    attempt_at = table.traces.mark_at(move.job_id, "attempt")
    if attempt_at is None:  # never ran here, or the trace was evicted
        return
    status = move.record.status
    if status == "failed":
        outcome = "quarantined" if move.quarantined else "failed"
    else:
        outcome = "retry" if status == "retrying" else "done"
    attributes: dict = {"outcome": outcome}
    if move.error:
        attributes["error"] = move.error
    span = Span(move.attempt_name, attempt_at, move.at - attempt_at, None, attributes)
    table.traces.add(move.job_id, span)


def _requeue_mark(table: JobTable, move: Move) -> None:
    # The backoff wait plus the re-queue land in the next queue-wait span.
    table.traces.mark(move.job_id, "queued", move.at)


def _graft(table: JobTable, move: Move) -> None:
    """The worker's measured tree, under the attempt that ran it."""
    if move.tree is None:
        return
    for node in move.tree.walk():
        table.stage_seconds.observe(node.seconds, stage=node.name)
    if table.traces.mark_at(move.job_id, "attempt") is not None:
        table.traces.add_tree(
            move.job_id, move.tree, parent=move.attempt_name, prefix="engine:"
        )


def _publish_span(table: JobTable, move: Move) -> None:
    """Recording the terminal result: the flip through its ledger append."""
    span = Span("publish", start=move.at, seconds=time.time() - move.at)
    table.traces.add(move.job_id, span)


def _drop_spool(table: JobTable, move: Move) -> None:
    table.discard_spool(move.job_id)


#: A finished job's records: attempt span, worker tree, publish span, and
#: the upload spool nothing reads any more.
_ATTEMPT_END = (_attempt_span, _graft, _publish_span, _drop_spool)
#: Target status -> the effects of a move there, run in order once the move
#: is accepted and its ledger append has been attempted.
EFFECTS: dict[str, tuple[Callable[[JobTable, Move], None], ...]] = {
    "running": (_queue_wait_span,),
    "retrying": (_log_retry, _attempt_span, _requeue_mark),
    "done": (_count_terminal, _count_store_hit, *_ATTEMPT_END),
    "failed": (_count_terminal, _log_quarantine, *_ATTEMPT_END),
    "cancelled": (_count_terminal, _drop_spool),
}

#: Record fields a done move copies from the worker's payload.
_RESULT_FIELDS = (
    "n", "d", "stars", "suppressed_tuples", "groups", "seconds", "store_hit",
    "metric_values",
)


def _record_updates(
    status: str, result: dict | None, error: str, attempts: int, quarantined: bool
) -> dict:
    """The record fields a move to ``status`` sets."""
    if status == "done":
        assert result is not None
        decision = result.get("decision") or {}
        return {
            **{name: result[name] for name in _RESULT_FIELDS},
            "attempts": attempts,
            "shards": decision.get("shards", 1),
            "workers": decision.get("workers", 1),
        }
    if status == "failed":
        return {"error": error, "last_error": error, "attempts": attempts,
                "quarantined": quarantined}
    if status == "retrying":
        return {"attempts": attempts, "last_error": error}
    if status == "running":
        return {"attempts": attempts}
    return {"error": error} if error else {}


# -------------------------------------------------------------------- table


class JobTable:
    """Resident job index, ledger writes and per-move effects."""

    def __init__(
        self, ledger: JobLedger, workspace: Workspace, metrics: MetricsRegistry,
        traces: TraceStore, capacity: int,
    ) -> None:
        self.ledger = ledger
        self.workspace = workspace
        self.traces = traces
        #: Resident entries kept; beyond it the oldest *terminal* ones go.
        self.capacity = capacity
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        #: Appends queue on this in the order their moves flipped; each runs
        #: its move's effects before the next one starts.
        self._write_lock = asyncio.Lock()
        self.terminal = metrics.counter(
            "repro_jobs_terminal_total",
            "Jobs that reached a terminal state, by state.",
            ("state",),
        )
        self.store_hits = metrics.counter(
            "repro_store_hits_total",
            "Completed jobs answered from the persistent run store.",
        )
        self.stage_seconds = metrics.histogram(
            "repro_engine_stage_seconds",
            "Seconds of each span of the job trees pool workers send back.",
            ("stage",),
        )
        metrics.gauge(
            "repro_result_artifact_bytes",
            "On-disk bytes of the resident jobs' result artifacts.",
        ).set_function(self._artifact_bytes)

    # ------------------------------------------------------------------ reads

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, job_id: str) -> JobRecord | None:
        entry = self._entries.get(job_id)
        return entry.record if entry is not None else None

    async def settled(self, job_id: str) -> JobRecord | None:
        """The resident record once every move flipped so far has been
        appended and has run its effects: what API readers see, so it never
        runs ahead of the ledger (short of a failed append) or a cleanup."""
        async with self._write_lock:
            return self.record(job_id)

    def result(self, job_id: str) -> dict | None:
        entry = self._entries.get(job_id)
        return entry.result if entry is not None else None

    def renders(self, job_id: str) -> dict:
        """The job's render cache (a throwaway dict once it is evicted)."""
        entry = self._entries.get(job_id)
        return entry.renders if entry is not None else {}

    def spool_path(self, job_id: str) -> Path:
        """Where an uploaded CSV waits for its job."""
        return self.workspace.tmp_dir / f"upload-{job_id}.csv"

    # ----------------------------------------------------------------- writes

    async def compact(self) -> int:
        """Compact the ledger (boot only); returns the lines reclaimed."""
        return await asyncio.to_thread(self.ledger.compact)

    async def create(self, **fields) -> JobRecord:
        """Append a fresh ``queued`` record (the ledger allocates the id)."""
        record = await asyncio.to_thread(self.ledger.create, **fields)
        self.load(record)
        return record

    def load(self, record: JobRecord) -> None:
        """Make a record resident as it stands (boot replay reads it back)."""
        self._entries[record.id] = _Entry(record)
        self._entries.move_to_end(record.id)
        self._evict()

    async def cancel(
        self, job_id: str, error: str = "", counted: bool = True
    ) -> JobRecord | None:
        """Cancel a job; see :meth:`transition` and :attr:`Move.counted`."""
        return await self.transition(job_id, "cancelled", error=error, counted=counted)

    async def transition(
        self, job_id: str, status: str, result: dict | None = None, error: str = "",
        attempts: int = 0, retry_in: float = 0.0, quarantined: bool = False,
        counted: bool = True,
    ) -> JobRecord | None:
        """Move one job; also the pool's transition callback.

        Returns the job's record after the move (another writer's terminal
        record when the ledger held one), or ``None`` when the move is
        refused: the job is unknown here or cannot make that move.  A refused
        move's result can never be served, so its artifact is deleted.
        """
        tree = result.pop("trace", None) if result is not None else None
        entry = self._entries.get(job_id)
        if entry is None or not can_transition(entry.record.status, status):
            self._discard_artifact(result)
            return None
        now = time.time()
        updates = _record_updates(status, result, error, attempts, quarantined)
        move = Move(
            replace(entry.record, status=status, updated=now, **updates),
            now, error, attempts, retry_in, quarantined, tree, counted,
        )
        entry.record = move.record
        if result is not None:
            entry.result = result
        self._entries.move_to_end(job_id)
        self._evict()
        winner = await self._write(entry, move)
        if winner is not None and winner is not move.record:
            self._adopt(entry, winner)
            return winner
        for effect in EFFECTS[status]:
            effect(self, move)
        return move.record

    async def _write(self, entry: _Entry, move: Move) -> JobRecord | None:
        """Append the move's record off the loop, in move order; returns the
        record the ledger ends on, or ``None`` when the append failed."""
        record = move.record
        async with self._write_lock:
            try:
                return await asyncio.to_thread(self.ledger.put, record)
            except OSError as error:
                _LOG.warning(
                    "job %s: ledger append of %r failed (%s); memory stays ahead",
                    record.id, record.status, error, extra={"job_id": record.id},
                )
                if record.is_terminal() and not record.error:
                    failed = f"ledger append failed: {error}"
                    move.record = replace(record, error=failed)
                    if entry.record is record:
                        entry.record = move.record
                return None

    def _adopt(self, entry: _Entry, record: JobRecord) -> None:
        """Install another writer's terminal record over the resident one."""
        if entry.record == record:  # an earlier move already adopted it
            return
        entry.record = record
        self.terminal.inc(state=record.status)
        self._discard_artifact(entry.result)
        entry.result = None
        entry.renders.clear()
        self.discard_spool(record.id)

    # -------------------------------------------------------------- residency

    def _evict(self) -> None:
        """Drop the oldest terminal entries beyond capacity (live ones stay)."""
        while len(self._entries) > self.capacity:
            victim = next(
                (key for key, e in self._entries.items() if e.record.is_terminal()), None
            )
            if victim is None:
                return
            self._discard_artifact(self._entries.pop(victim).result)

    def _discard_artifact(self, result: dict | None) -> None:
        """Delete a result's on-disk artifact (best-effort).

        Only paths inside the workspace's ``results/`` tree are touched: the
        path travelled through the worker payload.
        """
        info = (result or {}).get("result_artifact")
        if not info:
            return
        results_root = self.workspace.results_dir.resolve()
        try:
            target = Path(info.get("path", "")).resolve()
            target.relative_to(results_root)
        except (ValueError, OSError):
            return
        if target != results_root:
            shutil.rmtree(target, ignore_errors=True)

    def discard_spool(self, job_id: str) -> None:
        """Delete a job's spooled upload once nothing can read it."""
        try:
            self.spool_path(job_id).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass

    def _artifact_bytes(self) -> float:
        """Gauge callback: on-disk bytes of every resident job's artifact."""
        return float(sum(
            (entry.result or {}).get("result_artifact", {}).get("bytes", 0)
            for entry in self._entries.values()
        ))
