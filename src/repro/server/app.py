"""Anonymization-as-a-service: the asyncio HTTP application.

:class:`AnonymizationServer` exposes the planner/engine/store stack over a
small JSON-over-HTTP surface (all under ``/v1``):

====================================  ===================================================
``POST /v1/jobs``                     submit a job: JSON body with inline ``rows``, a
                                      ``source`` spec (synthetic or server-side CSV), or
                                      a ``text/csv`` body with query parameters
``GET  /v1/jobs``                     latest record of every job in the workspace ledger
``GET  /v1/jobs/{id}``                job status (ledger record + queue position info)
``GET  /v1/jobs/{id}/result``         published table (``?format=json`` or ``csv``)
``GET  /v1/jobs/{id}/metrics``        metric values / timings / cache tier of a done job
``GET  /v1/jobs/{id}/trace``          span tree of a recent job (submit -> queue-wait ->
                                      attempt(s) -> engine stages -> publish)
``POST /v1/jobs/{id}/cancel``         cancel a still-queued job
``GET  /v1/algorithms``               algorithm registry with capability metadata
``GET  /v1/metrics``                  *quality*-metric registry (information loss etc.)
``GET  /v1/privacy``                  privacy-model registry with parameter schemas
``POST /v1/plan``                     explain the planner's decision for a workload
``GET  /v1/health``                   liveness, version, queue depth, job counters
``GET  /v1/telemetry``                operational telemetry (Prometheus text format)
====================================  ===================================================

**Observability**: every response carries an ``X-Request-Id`` header (echoing
the client's, or minted at ingress); the id is stamped on the job's ledger
record and spec, follows the job into the pool worker and engine, and keys
the span tree served by ``/v1/jobs/{id}/trace``.  Operational counters,
gauges and histograms live on a per-server
:class:`~repro.obs.metrics.MetricsRegistry` scraped at ``/v1/telemetry``
(Prometheus text format); ``/v1/health`` reports the same numbers from the
same registry.  Every 4xx/5xx response is logged with its request id.

Submissions may carry a ``privacy`` object (e.g. ``{"kind": "entropy-l",
"l": 3}``) validated against the privacy registry; without one, the required
``l`` keeps meaning frequency l-diversity.  The resolved spec is echoed in
the job's status record and result payload so clients can audit what was
enforced.

Submissions are validated against the registries *before* queueing, then run
asynchronously on the bounded :class:`~repro.server.pool.WorkerPool`; the
job lifecycle (``queued -> running -> [retrying ->] done|failed|cancelled``)
is persisted to the workspace's :class:`~repro.service.jobs.JobLedger`, so
``ldiversity jobs list`` sees server jobs and vice versa — and so a
restarted server can **replay** every non-terminal job it finds at boot
(after compacting the ledger), which together with the pool's worker-death
recovery and per-job timeouts makes serving at-least-once: a SIGKILL'd
server or a segfaulting worker delays jobs, it does not lose them.  Two
backpressure mechanisms protect the service under load, both answered with
``Retry-After``:

* **queue depth** — a full worker queue rejects the submission with ``429``
  (the estimate is an EMA of recent job durations);
* **per-client rate limiting** — an optional token bucket per ``X-Client-Id``
  (or peer address) rejects bursts with ``429`` before they reach the queue.

``503`` is reserved for the draining window during shutdown.  Identical
repeated submissions are served from the persistent run store by the worker
(the result carries ``store_hit: true``), so a hot job costs one JSONL read
instead of a recomputation.
"""

from __future__ import annotations

import asyncio
import csv
import io
import logging
import re
import time
from collections import OrderedDict
from dataclasses import asdict, replace
from pathlib import Path
from typing import Awaitable, Callable

from repro._version import __version__
from repro.engine.registry import algorithm_registry, metric_registry
from repro.errors import UnknownEntryError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, TraceStore, new_request_id
from repro.privacy.spec import privacy_from_dict, privacy_registry, resolve_privacy
from repro.server.pool import QueueFullError, WorkerPool
from repro.server.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    Request,
    json_response,
    read_request,
    render_response,
    splice_header,
)
from repro.server.ratelimit import RateLimiter
from repro.service.jobs import JobLedger, JobRecord, JobStateError
from repro.service.workspace import Workspace

__all__ = ["AnonymizationServer"]

_LOG = logging.getLogger("repro.server")

Handler = Callable[["AnonymizationServer", Request], Awaitable[bytes]]
_ROUTES: list[tuple[str, re.Pattern[str], str, str]] = []


def _route(method: str, pattern: str):
    """Register a handler method for ``(method, path regex)``.

    Each route also derives a human template (``/v1/jobs/{id}``) from its
    pattern — the fixed, low-cardinality label requests are metered under
    (raw paths would mint one Prometheus series per job id).
    """

    def decorator(function):
        template = re.sub(r"\(\?P<(\w+)>[^)]*\)", r"{\1}", pattern)
        _ROUTES.append((method, re.compile(pattern), function.__name__, template))
        return function

    return decorator


def _require_int(payload: dict, key: str, minimum: int | None = None) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise HttpError(400, f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise HttpError(400, f"{key!r} must be >= {minimum}, got {value}")
    return value


class AnonymizationServer:
    """The asyncio HTTP server over the planner/engine/store stack."""

    def __init__(
        self,
        workspace: Workspace | str | Path | None = None,
        workers: int = 2,
        queue_cap: int = 16,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        use_store: bool = True,
        executor_kind: str = "process",
        max_resident_jobs: int = 256,
        data_dir: str | Path | None = None,
        request_timeout_seconds: float = 30.0,
        job_timeout_seconds: float | None = None,
        max_attempts: int = 3,
        retry_backoff_seconds: float = 0.5,
        replay: bool = True,
    ) -> None:
        self.workspace = (
            workspace if isinstance(workspace, Workspace) else Workspace(workspace)
        )
        #: Allowlist root for ``{"kind": "csv", "path": ...}`` sources.  When
        #: unset, server-side CSV paths are rejected outright: accepting any
        #: readable path would hand network clients arbitrary-file read as
        #: the server user the moment the bind leaves loopback.
        self.data_dir = (
            Path(data_dir).expanduser().resolve() if data_dir is not None else None
        )
        self.ledger = JobLedger(self.workspace.jobs_path)
        self.use_store = use_store
        self.max_body_bytes = max_body_bytes
        self.request_timeout_seconds = request_timeout_seconds
        self.limiter = RateLimiter(rate_limit, rate_burst)
        #: Per-server (not process-global) operational registry: the pool's
        #: recovery counters and queue gauges register here too, so one
        #: scrape of ``/v1/telemetry`` covers the whole serving stack and
        #: tests can assert exact counts without cross-test bleed.
        self.telemetry = MetricsRegistry()
        #: Span records of recent jobs, served by ``/v1/jobs/{id}/trace``.
        self.traces = TraceStore()
        self.pool = WorkerPool(
            workers=workers,
            queue_cap=queue_cap,
            transition=self._on_transition,
            executor_kind=executor_kind,
            workspace_root=str(self.workspace.root),
            use_store=use_store,
            job_timeout_seconds=job_timeout_seconds,
            max_attempts=max_attempts,
            retry_backoff_seconds=retry_backoff_seconds,
            metrics=self.telemetry,
        )
        self._http_requests = self.telemetry.counter(
            "repro_http_requests_total",
            "HTTP requests answered, by route template, method and status.",
            ("route", "method", "status"),
        )
        self._http_seconds = self.telemetry.histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds from request read to response write.",
            ("route",),
        )
        self._jobs_submitted = self.telemetry.counter(
            "repro_jobs_submitted_total", "Jobs accepted onto the pool queue."
        )
        self._jobs_terminal = self.telemetry.counter(
            "repro_jobs_terminal_total",
            "Jobs that reached a terminal state, by state.",
            ("state",),
        )
        self._jobs_rejected = self.telemetry.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected before queueing, by reason.",
            ("reason",),
        )
        self._store_hits = self.telemetry.counter(
            "repro_store_hits_total",
            "Completed jobs answered from the persistent run store.",
        )
        self._jobs_replayed = self.telemetry.counter(
            "repro_jobs_replayed_total",
            "Non-terminal ledger jobs re-enqueued at boot (crash recovery).",
        )
        self._compaction_reclaimed = self.telemetry.gauge(
            "repro_ledger_compaction_reclaimed",
            "Superseded ledger records reclaimed by the boot-time compaction.",
        )
        self._engine_stage_seconds = self.telemetry.histogram(
            "repro_engine_stage_seconds",
            "Per-stage engine seconds bridged back from pool workers.",
            ("stage",),
        )
        self._result_renders = self.telemetry.counter(
            "repro_result_renders_total",
            "Result bodies rendered from a job's published output, by format.",
            ("format",),
        )
        self._result_cache_hits = self.telemetry.counter(
            "repro_result_cache_hits_total",
            "Result fetches answered from the per-job render cache, by format.",
            ("format",),
        )
        self._result_artifact_bytes = self.telemetry.gauge(
            "repro_result_artifact_bytes",
            "On-disk bytes of the resident jobs' result artifacts.",
        )
        self._result_artifact_bytes.set_function(self._resident_artifact_bytes)
        #: Whether start() re-enqueues the ledger's non-terminal jobs.  On by
        #: default (the crash-recovery contract); tests that stage ledgers
        #: by hand opt out.
        self.replay = replay
        #: job id -> {"record": JobRecord, "result": dict | None} for jobs
        #: submitted to *this* server process.  Results are memory-resident
        #: and bounded: beyond ``max_resident_jobs``, the oldest *terminal*
        #: entries are evicted (status then falls back to the ledger; an
        #: evicted result re-answers from the run store on resubmission).
        self._jobs: OrderedDict[str, dict] = OrderedDict()
        #: Jobs between their ledger ``create`` and ``pool.submit`` (the
        #: submission handler's offloaded awaits); a cancel arriving in that
        #: window flags ``_cancel_requested`` and the submitter skips the
        #: enqueue instead of answering an unsatisfiable 409.
        self._pending_submits: set[str] = set()
        self._cancel_requested: set[str] = set()
        self.max_resident_jobs = max(max_resident_jobs, queue_cap + workers + 1)
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._started_at: float | None = None
        self.host: str | None = None
        self.port: int | None = None

    @property
    def stats(self) -> dict:
        """The legacy job-counter dict, read from the telemetry registry.

        One source of truth: the same instruments back ``/v1/telemetry``,
        ``/v1/health`` and this view, so the three can never disagree.
        """
        return {
            "submitted": int(self._jobs_submitted.total()),
            "done": int(self._jobs_terminal.value(state="done")),
            "failed": int(self._jobs_terminal.value(state="failed")),
            "cancelled": int(self._jobs_terminal.value(state="cancelled")),
            "rejected_queue_full": int(self._jobs_rejected.value(reason="queue_full")),
            "rejected_rate_limited": int(
                self._jobs_rejected.value(reason="rate_limited")
            ),
            "store_hits": int(self._store_hits.total()),
            "replayed": int(self._jobs_replayed.total()),
            "compaction_reclaimed": int(self._compaction_reclaimed.value()),
        }

    # -------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port).

        Boot order is part of the durability contract: the ledger is
        compacted (safe — no reader is mid-stream yet) and every non-terminal
        job it holds is re-enqueued *before* the socket binds, so a client
        that reconnects after a crash never observes the server accepting new
        work while old work is still unaccounted for.
        """
        reclaimed = await self._offload(self.ledger.compact)
        self._compaction_reclaimed.set(float(reclaimed))
        if reclaimed:
            _LOG.info("ledger compaction reclaimed %d superseded records", reclaimed)
        # Result artifacts from a previous server process are orphans: their
        # resident results died with that process (done jobs re-answer from
        # the run store on resubmission) and replayed jobs write fresh ones.
        await self._offload(self._clear_stale_artifacts)
        await self.pool.start()
        if self.replay:
            await self._replay_ledger()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        name = self._server.sockets[0].getsockname()
        self.host, self.port = name[0], name[1]
        self._started_at = time.time()
        return self.host, self.port

    async def _replay_ledger(self) -> None:
        """Re-enqueue every non-terminal ledger job (crash recovery).

        A previous server process that was SIGKILL'd leaves ``queued``,
        ``retrying`` and mid-attempt ``running`` records behind; each carries
        the job spec it was queued with, so the work is resubmitted rather
        than failed.  Interrupted ``running`` jobs transition to ``retrying``
        first — their attempt died with the old process.  Records without a
        spec (CLI submissions, or pre-durability servers) cannot be replayed
        and are left alone: the CLI process that owns them may still be live,
        and failing another writer's job here would race it.
        """
        for record in await self._offload(self.ledger.list):
            if record.is_terminal() or record.status not in (
                "queued",
                "running",
                "retrying",
            ):
                continue
            spec = record.spec
            if not spec or not isinstance(spec.get("source"), dict):
                _LOG.warning(
                    "not replaying %s (%s): no spec on record (CLI or legacy writer)",
                    record.id,
                    record.status,
                )
                continue
            source = spec["source"]
            if source.get("kind") == "csv" and not source.get("path"):
                # An uploaded CSV spools next to the workspace under the job
                # id; reconstruct the path the same way the submitter did.
                spool = self.workspace.tmp_dir / f"upload-{record.id}.csv"
                if not spool.exists():
                    try:
                        refreshed = await self._offload(
                            self.ledger.transition,
                            record.id,
                            "failed",
                            error="upload spool lost across server restart",
                        )
                        self._remember(record.id, record=refreshed)
                    except (KeyError, JobStateError):  # pragma: no cover - racy
                        pass
                    self._jobs_terminal.inc(state="failed")
                    continue
                source = dict(source, path=str(spool))
                spec = dict(spec, source=source)
            if record.status == "running":
                try:
                    record = await self._offload(
                        self.ledger.transition,
                        record.id,
                        "retrying",
                        attempts=record.attempts,
                        last_error="interrupted by server restart",
                    )
                except (KeyError, JobStateError):  # pragma: no cover - racy
                    continue
            self._remember(record.id, record=record)
            self.traces.begin(record.id, record.request_id)
            self.traces.mark(record.id, "queued")
            await self.pool.requeue(record.id, spec, attempts=record.attempts)
            self._jobs_replayed.inc()
            _LOG.info(
                "replayed %s (%s, %d/%d attempts spent)",
                record.id,
                record.status,
                record.attempts,
                record.max_attempts or self.pool.max_attempts,
            )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def shutdown(
        self, drain_seconds: float = 0.0, grace_seconds: float = 10.0
    ) -> None:
        """Stop accepting, optionally drain, cancel whatever never ran."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain_seconds > 0:
            try:
                await asyncio.wait_for(self.pool._queue.join(), timeout=drain_seconds)
            except asyncio.TimeoutError:
                pass
        abandoned, interrupted = await self.pool.shutdown(grace_seconds=grace_seconds)
        for job_id in abandoned:
            self._discard_spool(job_id)
            try:
                record = await self._offload(self.ledger.cancel, job_id)
            except (KeyError, JobStateError):
                continue
            self._jobs_terminal.inc(state="cancelled")
            if job_id in self._jobs:
                self._jobs[job_id]["record"] = record
        for job_id in interrupted:
            # The run outlived the grace window: the worker finished (or was
            # torn down) without its drainer recording a terminal state.
            # Close the lifecycle so clients never poll "running" forever.
            self._discard_spool(job_id)
            try:
                record = await self._offload(
                    self.ledger.transition,
                    job_id,
                    "cancelled",
                    error="server shut down before the result was recorded",
                )
            except (KeyError, JobStateError):
                continue
            self._jobs_terminal.inc(state="cancelled")
            if job_id in self._jobs:
                self._jobs[job_id]["record"] = record

    def _clear_stale_artifacts(self) -> None:
        import shutil

        root = self.workspace.results_dir
        try:
            children = list(root.iterdir())
        except OSError:  # pragma: no cover - cleanup is best-effort
            return
        for child in children:
            try:
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
                else:
                    child.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - cleanup is best-effort
                continue

    @staticmethod
    async def _offload(function, *args, **kwargs):
        """Run blocking disk I/O (ledger flock/replay, spool writes) off the loop.

        Every ledger operation takes a blocking ``fcntl.flock`` and replays
        the JSONL file; a contended lock (e.g. a concurrent CLI writer) held
        on the event-loop thread would stall every connection at once.
        """
        return await asyncio.to_thread(function, *args, **kwargs)

    # ------------------------------------------------------------ connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_name = peer[0] if isinstance(peer, tuple) else str(peer)
        request: Request | None = None
        started = time.perf_counter()
        try:
            try:
                # A deadline on reading the request: without one, a client
                # that opens a socket and never completes its headers/body
                # pins this task (and its buffers) forever, invisible to the
                # rate limiter and queue cap, which only see parsed requests.
                try:
                    request = await asyncio.wait_for(
                        read_request(reader, peer_name, self.max_body_bytes),
                        timeout=self.request_timeout_seconds,
                    )
                except asyncio.TimeoutError:
                    raise HttpError(
                        408, "timed out waiting for the request"
                    ) from None
                if request is None:
                    return
                if not request.request_id:
                    request.request_id = new_request_id()
                response = await self._dispatch(request)
            except HttpError as error:
                response = json_response(
                    error.status, {"error": error.message}, headers=error.headers
                )
            except Exception as error:  # noqa: BLE001 - last-resort 500
                response = json_response(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
            response = self._observe_response(request, peer_name, started, response)
            writer.write(response)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass

    def _observe_response(
        self, request: Request | None, peer: str, started: float, response: bytes
    ) -> bytes:
        """Echo ``X-Request-Id``, meter the exchange, log any 4xx/5xx.

        ``request`` is ``None`` when the bytes on the wire never parsed into
        one (malformed framing, read timeout); those exchanges are metered
        under the reserved ``unread`` route so abuse is still visible.
        """
        request_id = request.request_id if request is not None else new_request_id()
        response = splice_header(response, "X-Request-Id", request_id)
        try:
            status = int(response.split(b" ", 2)[1])
        except (IndexError, ValueError):  # pragma: no cover - we framed it
            status = 0
        if request is None:
            route, method = "unread", ""
        else:
            route = request.route or "unmatched"
            method = request.method
        self._http_requests.inc(route=route, method=method, status=str(status))
        self._http_seconds.observe(time.perf_counter() - started, route=route)
        if status >= 400:
            _LOG.warning(
                "%s %s -> %d",
                method or "?",
                request.path if request is not None else "<unparsed>",
                status,
                extra={
                    "request_id": request_id,
                    "route": route,
                    "method": method or None,
                    "status": status,
                    "client": request.client if request is not None else peer,
                },
            )
        return response

    async def _dispatch(self, request: Request) -> bytes:
        allowed: set[str] = set()
        for method, pattern, handler_name, template in _ROUTES:
            match = pattern.fullmatch(request.path)
            if match is None:
                continue
            request.route = template  # known path: label even 405s by route
            if method != request.method:
                allowed.add(method)
                continue
            request.path_params = match.groupdict()
            handler: Handler = getattr(type(self), handler_name)
            return await handler(self, request)
        if allowed:
            raise HttpError(
                405,
                f"method {request.method} not allowed for {request.path}",
                headers={"Allow": ", ".join(sorted(allowed))},
            )
        raise HttpError(404, f"no route for {request.path}")

    # ------------------------------------------------------------- submission

    @_route("POST", r"/v1/jobs")
    async def _handle_submit(self, request: Request) -> bytes:
        submit_started = time.time()
        if self._draining:
            raise HttpError(
                503, "server is shutting down", headers={"Retry-After": "1"}
            )
        wait = self.limiter.check(request.client)
        if wait > 0:
            self._jobs_rejected.inc(reason="rate_limited")
            raise HttpError(
                429,
                f"client {request.client!r} is rate limited; retry in {wait:.3f}s",
                headers={"Retry-After": str(max(1, int(wait + 0.999)))},
            )
        if self.pool.depth >= self.pool.queue_cap:
            self._jobs_rejected.inc(reason="queue_full")
            raise self._queue_full_error(
                self.pool.depth, self.pool.queue_cap, self.pool.retry_after()
            )

        content_type = request.headers.get("content-type", "application/json")
        if content_type.split(";")[0].strip() == "text/csv":
            label, spec, spool = self._spec_from_csv_upload(request)
        else:
            label, spec, spool = self._spec_from_json(request.json())
        # The trace id rides inside the spec so the pool worker (and, on a
        # restart, the replayed job) can stamp it on the engine run.
        spec["request_id"] = request.request_id
        # Row-carrying jobs publish through a workspace result artifact
        # instead of pickling rendered row-strings back through the process
        # pool; the flag (rather than a default) keeps direct execute_job
        # callers on the legacy inline-rows payload.
        if spec.get("include_rows", True):
            spec["result_artifact"] = True

        # The full spec is persisted on the queued record (with an upload's
        # spool path still empty — replay reconstructs it from the job id),
        # so a restarted server can re-enqueue the job without the client.
        record = await self._offload(
            self.ledger.create,
            label=label,
            algorithm=spec["algorithm"],
            l=spec["l"],
            privacy=spec["privacy"],
            client=request.client,
            spec=spec,
            max_attempts=self.pool.max_attempts,
            request_id=request.request_id,
        )
        self._remember(record.id, record=record)
        self._pending_submits.add(record.id)
        try:
            if spool is not None:
                # Spool files are named by job id so concurrent uploads never
                # clash.  A failed write must roll the ledger record back —
                # the pool never saw this job, so nothing else would ever
                # close a lifecycle left 'queued' here.
                try:
                    path = self.workspace.tmp_dir / f"upload-{record.id}.csv"
                    await self._offload(path.write_bytes, spool)
                except OSError as error:
                    await self._rollback_submission(record.id)
                    raise HttpError(
                        500, f"failed to spool the upload: {error}"
                    ) from None
                spec["source"]["path"] = str(path)
            # The draining flag and queue capacity were pre-checked, but the
            # offloaded ledger/spool awaits above let concurrent submissions,
            # cancels, or a shutdown() that already harvested the pool race
            # past them.  Everything from here through pool.submit is
            # await-free, so nothing can interleave again.
            if record.id in self._cancel_requested:
                # A cancel landed while we were between the ledger create and
                # the enqueue; the cancel handler already moved the ledger
                # record, so just skip the enqueue.
                self._discard_spool(record.id)
                return json_response(
                    202,
                    {
                        "id": record.id,
                        "status": "cancelled",
                        "queue_depth": self.pool.depth,
                    },
                )
            if self._draining:
                await self._rollback_submission(record.id)
                raise HttpError(
                    503, "server is shutting down", headers={"Retry-After": "1"}
                )
            try:
                self.pool.submit(record.id, spec)
            except QueueFullError as error:
                self._jobs_rejected.inc(reason="queue_full")
                await self._rollback_submission(record.id)
                raise self._queue_full_error(
                    error.depth, error.capacity, error.retry_after
                ) from None
        finally:
            self._pending_submits.discard(record.id)
            self._cancel_requested.discard(record.id)
        self._jobs_submitted.inc()
        now = time.time()
        self.traces.begin(record.id, request.request_id)
        self.traces.add(
            record.id,
            Span("submit", start=submit_started, seconds=now - submit_started),
        )
        self.traces.mark(record.id, "queued", now)
        return json_response(
            202,
            {"id": record.id, "status": record.status, "queue_depth": self.pool.depth},
        )

    @staticmethod
    def _queue_full_error(depth: int, capacity: int, retry_after: float) -> HttpError:
        return HttpError(
            429,
            f"job queue is full ({depth}/{capacity})",
            headers={"Retry-After": str(max(1, int(retry_after)))},
        )

    async def _rollback_submission(self, job_id: str) -> None:
        """Undo a submission rejected after its ledger record already existed."""
        self._discard_spool(job_id)
        try:
            record = await self._offload(self.ledger.cancel, job_id)
        except (KeyError, JobStateError):  # pragma: no cover - racy cleanup
            return
        self._remember(job_id, record=record)

    def _spec_from_json(self, payload: dict) -> tuple[str, dict, bytes | None]:
        """Validate a JSON submission; returns (label, spec, spooled CSV or None)."""
        spec = self._base_spec(payload)
        rows = payload.get("rows")
        source = payload.get("source")
        if (rows is None) == (source is None):
            raise HttpError(400, "provide exactly one of 'rows' or 'source'")
        if rows is not None:
            label, spool = self._validate_inline_rows(payload, spec)
            return label, spec, spool
        if not isinstance(source, dict):
            raise HttpError(400, f"'source' must be an object, got {source!r}")
        kind = source.get("kind")
        if kind == "synthetic":
            dataset = str(source.get("dataset", "SAL")).upper()
            if dataset not in ("SAL", "OCC"):
                raise HttpError(400, f"unknown synthetic dataset {dataset!r}")
            n = _require_int(source, "n", minimum=1) if "n" in source else 10_000
            dimension = source.get("dimension")
            if dimension is not None:
                dimension = _require_int(source, "dimension", minimum=1)
            spec["source"] = {
                "kind": "synthetic",
                "dataset": dataset,
                "n": n,
                "seed": _require_int(source, "seed") if "seed" in source else 7,
                "dimension": dimension,
            }
            suffix = f"-{dimension}" if dimension is not None else ""
            return f"{dataset}{suffix}@{n}", spec, None
        if kind == "csv":
            path = source.get("path")
            if not isinstance(path, str) or not path:
                raise HttpError(400, "csv source requires a 'path' string")
            resolved = self._allowlisted_csv_path(path)
            qi, sa = self._validate_qi_sa(source)
            spec["source"] = {"kind": "csv", "path": str(resolved), "qi": qi, "sa": sa}
            return path, spec, None
        raise HttpError(400, f"unknown source kind {kind!r} (use 'synthetic' or 'csv')")

    def _allowlisted_csv_path(self, path: str) -> Path:
        """Resolve a server-side CSV path against the ``data_dir`` allowlist.

        The result endpoints return the parsed file verbatim, so an
        unrestricted path would let any network client read any file the
        server user can.  Paths are resolved (symlinks and ``..`` included)
        before the containment check.
        """
        if self.data_dir is None:
            raise HttpError(
                403,
                "server-side csv sources are disabled; start the server with "
                "--data-dir to allow them, or upload the CSV body instead",
            )
        resolved = (self.data_dir / path).resolve()
        try:
            resolved.relative_to(self.data_dir)
        except ValueError:
            raise HttpError(
                403,
                f"csv source path {path!r} is outside the served data directory",
            ) from None
        if not resolved.is_file():
            raise HttpError(400, f"csv source path {path!r} is not a server-side file")
        return resolved

    def _spec_from_csv_upload(self, request: Request) -> tuple[str, dict, bytes]:
        """Validate a ``text/csv`` upload driven by query parameters."""
        query = dict(request.query)
        if "privacy" in query:
            # The spec's dict encoding travels as a JSON-valued parameter
            # (the CSV body leaves nowhere else to put a structured field).
            import json as _json

            try:
                query["privacy"] = _json.loads(query["privacy"])
            except _json.JSONDecodeError:
                raise HttpError(
                    400, "'privacy' must be a JSON object query parameter"
                ) from None
        if "l" not in query and "privacy" not in query:
            raise HttpError(400, "csv upload requires an 'l' query parameter")
        if "l" in query:
            try:
                query["l"] = int(query["l"])
            except ValueError:
                raise HttpError(
                    400, f"'l' must be an integer, got {query['l']!r}"
                ) from None
        if "qi" in query:
            query["qi"] = [name for name in query["qi"].split(",") if name]
        if "metrics" in query:
            query["metrics"] = [name for name in query["metrics"].split(",") if name]
        if "include_rows" in query:
            query["include_rows"] = query["include_rows"].lower() not in (
                "0", "false", "no",
            )
        for key in ("shards", "seed", "chunk_rows"):
            if key in query:
                try:
                    query[key] = int(query[key])
                except ValueError:
                    raise HttpError(
                        400, f"{key!r} must be an integer, got {query[key]!r}"
                    ) from None
        spec = self._base_spec(query)
        qi, sa = self._validate_qi_sa(query)
        if not request.body.strip():
            raise HttpError(400, "csv upload body is empty")
        header_line = request.body.split(b"\n", 1)[0].decode("utf-8", "replace")
        header = next(csv.reader([header_line]))
        missing = [name for name in (*qi, sa) if name not in header]
        if missing:
            raise HttpError(400, f"csv header {header} is missing columns {missing}")
        spec["source"] = {"kind": "csv", "path": "", "qi": qi, "sa": sa}
        label = f"upload({len(request.body)}B)"
        return label, spec, request.body

    def _base_spec(self, payload: dict) -> dict:
        """The source-independent part of a job spec, validated against registries."""
        algorithm = payload.get("algorithm", "TP+")
        try:
            info = algorithm_registry.get(algorithm)
        except UnknownEntryError:
            raise HttpError(
                400,
                f"unknown algorithm {algorithm!r}; known: "
                f"{sorted(algorithm_registry.names())}",
            ) from None
        privacy_spec, l = self._resolve_spec_and_l(payload)
        metrics = payload.get("metrics", [])
        if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
            raise HttpError(400, f"'metrics' must be a list of names, got {metrics!r}")
        for name in metrics:
            try:
                metric_registry.get(name)
            except UnknownEntryError:
                raise HttpError(
                    400,
                    f"unknown metric {name!r}; known: {sorted(metric_registry.names())}",
                ) from None
        shards = payload.get("shards")
        if shards is not None:
            shards = _require_int(payload, "shards", minimum=1)
            if shards > 1 and not info.supports_sharding:
                raise HttpError(
                    400, f"algorithm {info.name!r} does not support sharded execution"
                )
        chunk_rows = payload.get("chunk_rows")
        if chunk_rows is not None:
            chunk_rows = _require_int(payload, "chunk_rows", minimum=1)
        include_rows = payload.get("include_rows", True)
        if not isinstance(include_rows, bool):
            raise HttpError(
                400, f"'include_rows' must be a boolean, got {include_rows!r}"
            )
        return {
            "algorithm": info.name,
            "l": l,
            # The resolved spec always travels in its canonical dict form —
            # default submissions carry the frequency spec explicitly, so the
            # worker, the ledger and the result payload can never disagree on
            # what was enforced.
            "privacy": privacy_spec.to_dict(),
            "metrics": list(metrics),
            "shards": shards,
            "seed": _require_int(payload, "seed") if "seed" in payload else 0,
            "chunk_rows": chunk_rows,
            # metrics-only workloads skip rendering/pickling/retaining the
            # full decoded table — at large n the rows dominate both the
            # process-pool transfer and the resident-result footprint.
            "include_rows": include_rows,
        }

    @classmethod
    def _resolve_spec_and_l(cls, payload: dict):
        """Resolve a payload's privacy model and ``l``; shared by ``/v1/jobs``
        and ``/v1/plan`` so the two endpoints can never validate differently.

        With an explicit ``privacy`` object, ``l`` is only an optional
        display hint (defaulting to the spec's group floor); without one it
        is required and keeps the frequency-diversity sugar contract.
        """
        spec = cls._validate_privacy(payload)
        if spec is not None:
            l = (
                _require_int(payload, "l", minimum=1)
                if "l" in payload
                else spec.group_floor()
            )
        else:
            l = _require_int(payload, "l", minimum=2)
            spec = resolve_privacy(None, l)
        return spec, l

    @staticmethod
    def _validate_privacy(payload: dict):
        """Validate an optional ``privacy`` object against the registry.

        Returns the resolved spec or ``None`` when the submission relies on
        the ``l`` sugar.  Check-only models (t-closeness) are rejected: they
        can be audited with ``ldiversity verify`` but not requested here.
        """
        privacy = payload.get("privacy")
        if privacy is None:
            return None
        if not isinstance(privacy, dict):
            raise HttpError(400, f"'privacy' must be an object, got {privacy!r}")
        try:
            spec = privacy_from_dict(privacy)
        except UnknownEntryError as error:
            raise HttpError(
                400,
                f"{error}",
            ) from None
        except ValueError as error:
            raise HttpError(400, f"invalid privacy spec: {error}") from None
        if not privacy_registry.get(spec.kind).enforceable:
            raise HttpError(
                400,
                f"privacy model {spec.kind!r} is check-only and cannot be an "
                "anonymization target (audit published CSVs with "
                "`ldiversity verify` instead)",
            )
        return spec

    @staticmethod
    def _validate_qi_sa(payload: dict) -> tuple[list[str], str]:
        qi = payload.get("qi")
        sa = payload.get("sa")
        if not isinstance(qi, list) or not qi or not all(isinstance(q, str) for q in qi):
            raise HttpError(400, f"'qi' must be a non-empty list of column names, got {qi!r}")
        if not isinstance(sa, str) or not sa:
            raise HttpError(400, f"'sa' must be a column name, got {sa!r}")
        if sa in qi:
            raise HttpError(400, f"sensitive column {sa!r} cannot also be a QI column")
        return list(qi), sa

    def _validate_inline_rows(self, payload: dict, spec: dict) -> tuple[str, bytes]:
        """Validate inline ``rows`` and spool them into CSV bytes."""
        qi, sa = self._validate_qi_sa(payload)
        rows = payload["rows"]
        if not isinstance(rows, list) or not rows:
            raise HttpError(400, "'rows' must be a non-empty list")
        columns = payload.get("columns")
        if isinstance(rows[0], dict):
            columns = list(qi) + [sa]
            try:
                cells = [[str(row[name]) for name in columns] for row in rows]
            except (TypeError, KeyError) as error:
                raise HttpError(
                    400, f"row is missing column {error}: rows must be objects "
                    f"with every qi/sa column"
                ) from None
        elif isinstance(rows[0], list):
            if not isinstance(columns, list) or not columns:
                raise HttpError(400, "list-shaped 'rows' require a 'columns' list")
            missing = [name for name in (*qi, sa) if name not in columns]
            if missing:
                raise HttpError(400, f"'columns' {columns} is missing {missing}")
            width = len(columns)
            if any(not isinstance(row, list) or len(row) != width for row in rows):
                raise HttpError(400, f"every row must be a list of {width} cells")
            cells = [[str(cell) for cell in row] for row in rows]
        else:
            raise HttpError(400, "'rows' must contain objects or lists")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        writer.writerows(cells)
        spec["source"] = {"kind": "csv", "path": "", "qi": qi, "sa": sa}
        return f"inline({len(rows)} rows)", buffer.getvalue().encode("utf-8")

    # ------------------------------------------------------------ transitions

    async def _on_transition(
        self,
        job_id: str,
        status: str,
        result: dict | None = None,
        error: str = "",
        attempts: int = 0,
        retry_in: float = 0.0,
        quarantined: bool = False,
    ) -> None:
        """Pool callback (awaited by the drainer): persist + mirror a transition.

        The ledger write runs on an executor thread; the in-memory job table
        is only touched from the event-loop thread, and the trace/metric
        mutations go through their own locks.
        """
        self._trace_transition(job_id, status, error, attempts, quarantined, result)
        publish_started = time.time()
        try:
            if status == "running":
                record = await self._offload(
                    self.ledger.transition, job_id, "running", attempts=attempts
                )
            elif status == "retrying":
                _LOG.warning(
                    "job %s attempt %d failed (%s); retrying in %.2fs",
                    job_id,
                    attempts,
                    error,
                    retry_in,
                    extra={
                        "job_id": job_id,
                        "request_id": self.traces.request_id(job_id),
                        "outcome": "retrying",
                        "attempts": attempts,
                        "error": error,
                    },
                )
                record = await self._offload(
                    self.ledger.transition,
                    job_id,
                    "retrying",
                    attempts=attempts,
                    last_error=error,
                )
            elif status == "failed":
                self._jobs_terminal.inc(state="failed")
                if quarantined:
                    _LOG.error(
                        "job %s quarantined: %s",
                        job_id,
                        error,
                        extra={
                            "job_id": job_id,
                            "request_id": self.traces.request_id(job_id),
                            "outcome": "quarantined",
                            "attempts": attempts,
                            "error": error,
                        },
                    )
                record = await self._offload(
                    self.ledger.transition,
                    job_id,
                    "failed",
                    error=error,
                    attempts=attempts,
                    last_error=error,
                    quarantined=quarantined,
                )
            elif status == "done":
                assert result is not None
                self._jobs_terminal.inc(state="done")
                if result.get("store_hit"):
                    self._store_hits.inc()
                decision = result.get("decision") or {}
                record = await self._offload(
                    self.ledger.transition,
                    job_id,
                    "done",
                    attempts=attempts,
                    n=result["n"],
                    d=result["d"],
                    shards=decision.get("shards", 1),
                    workers=decision.get("workers", 1),
                    stars=result["stars"],
                    suppressed_tuples=result["suppressed_tuples"],
                    groups=result["groups"],
                    seconds=result["seconds"],
                    cache_hit=result["cache_hit"],
                    store_hit=result["store_hit"],
                    metric_values=result["metric_values"],
                )
            else:  # pragma: no cover - pool only emits the four above
                return
        except (KeyError, JobStateError) as state_error:
            # Usually an out-of-band writer (e.g. a CLI `jobs cancel`) moved
            # the job ahead of us — refresh the in-memory mirror from the
            # ledger so it does not freeze on a stale non-terminal record.
            try:
                record = await self._offload(self.ledger.get, job_id)
            except (KeyError, OSError):
                record = None
            if status in ("done", "failed") and (
                record is None or not record.is_terminal()
            ):
                # The ledger is *behind*, not ahead (e.g. its 'running'
                # append failed earlier and it still says 'queued'):
                # reinstalling that record would freeze the job, so
                # synthesize the terminal state from memory instead.
                record = (
                    self._synthesized_record(
                        job_id, status, error, f"ledger behind the worker: {state_error}"
                    )
                    or record
                )
        except OSError as io_error:
            # The ledger append itself failed (e.g. disk full, injected
            # fault).  Keep the API truthful from memory: flip the resident
            # record to the attempted status so the job cannot read as
            # 'running' forever, and fall through so a computed result is
            # still remembered — the ledger lags (later transitions re-sync
            # it via the JobStateError refresh above) but nothing is lost.
            record = self._synthesized_record(
                job_id, status, error, f"ledger append failed: {io_error}"
            )
        if status in ("done", "failed"):
            self._discard_spool(job_id)
            self.traces.add(
                job_id,
                Span(
                    "publish",
                    start=publish_started,
                    seconds=time.time() - publish_started,
                ),
            )
        self._remember(job_id, record=record, result=result)

    #: Canonical engine stage order, used to lay bridged stage spans end to
    #: end under their attempt (the profiling snapshot is an unordered dict).
    _STAGE_ORDER = (
        "load", "encode", "encode-chunks", "state-init", "phase1", "phase2",
        "phase3", "publish", "publish-chunks", "merge", "metrics",
    )

    def _trace_transition(
        self,
        job_id: str,
        status: str,
        error: str,
        attempts: int,
        quarantined: bool,
        result: dict | None,
    ) -> None:
        """Record the spans a pool transition implies (all no-ops when the
        job's trace was evicted or predates this server process)."""
        now = time.time()
        if status == "running":
            queued_at = self.traces.mark_at(job_id, "queued")
            if queued_at is not None:
                self.traces.add(
                    job_id,
                    Span("queue-wait", start=queued_at, seconds=now - queued_at),
                )
            self.traces.mark(job_id, "attempt", now)
            return
        attempt_at = self.traces.mark_at(job_id, "attempt")
        if attempt_at is None:
            return
        attempt_name = f"attempt-{max(attempts, 1)}"
        if status == "retrying":
            outcome = "retry"
        elif status == "failed":
            outcome = "quarantined" if quarantined else "failed"
        else:
            outcome = "done"
        attributes: dict = {"outcome": outcome}
        if error:
            attributes["error"] = error
        self.traces.add(
            job_id,
            Span(
                attempt_name,
                start=attempt_at,
                seconds=now - attempt_at,
                attributes=attributes,
            ),
        )
        if status == "retrying":
            # The backoff wait plus the re-queue both land in the next
            # attempt's queue-wait span.
            self.traces.mark(job_id, "queued", now)
            return
        if status == "done" and result is not None:
            profile = result.get("profile") or {}
            ordered = [
                (stage, profile[stage])
                for stage in self._STAGE_ORDER
                if stage in profile
            ]
            ordered.extend(
                sorted(
                    (stage, seconds)
                    for stage, seconds in profile.items()
                    if stage not in self._STAGE_ORDER
                )
            )
            cursor = attempt_at
            for stage, seconds in ordered:
                self._engine_stage_seconds.observe(seconds, stage=stage)
                self.traces.add(
                    job_id,
                    Span(
                        f"engine:{stage}",
                        start=cursor,
                        seconds=seconds,
                        parent=attempt_name,
                    ),
                )
                cursor += seconds

    def _synthesized_record(
        self, job_id: str, status: str, error: str, cause: str
    ) -> JobRecord | None:
        """A record built from the resident one when the ledger can't provide
        it (failed append, or one lagging behind the worker) — used for both
        terminal states and a retry the ledger never heard about."""
        entry = self._jobs.get(job_id)
        current = entry["record"] if entry is not None else None
        if current is None:
            return None
        if status in ("done", "failed", "cancelled"):
            return replace(
                current, status=status, updated=time.time(), error=error or cause
            )
        return replace(
            current, status=status, updated=time.time(), last_error=error or cause
        )

    def _remember(
        self, job_id: str, record: JobRecord | None, result: dict | None = None
    ) -> None:
        """Update the bounded in-memory job table (evicts oldest terminal entries)."""
        entry = self._jobs.setdefault(job_id, {"record": None, "result": None})
        if record is not None:
            entry["record"] = record
        if result is not None:
            entry["result"] = result
        self._jobs.move_to_end(job_id)
        while len(self._jobs) > self.max_resident_jobs:
            evicted = next(
                (
                    key
                    for key, candidate in self._jobs.items()
                    if candidate["record"] is None or candidate["record"].is_terminal()
                ),
                None,
            )
            if evicted is None:  # every resident job is still live; keep them
                break
            self._discard_artifact(self._jobs.pop(evicted))

    def _discard_artifact(self, entry: dict | None) -> None:
        """Delete an evicted job's on-disk result artifact (best-effort).

        Once the resident entry is gone the result can never be served again
        (``/result`` answers 404 and points at the run store), so its
        artifact directory is reclaimed.  Only paths inside the workspace's
        ``results/`` tree are touched — the path travelled through the
        worker payload, and deleting anywhere it points would be a footgun.
        """
        info = ((entry or {}).get("result") or {}).get("result_artifact")
        if not info:
            return
        import shutil

        results_root = self.workspace.results_dir.resolve()
        try:
            target = Path(info.get("path", "")).resolve()
            target.relative_to(results_root)
        except (ValueError, OSError):
            return
        if target == results_root:
            return
        try:
            shutil.rmtree(target, ignore_errors=True)
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass

    def _discard_spool(self, job_id: str) -> None:
        """Delete a submission's spooled upload once the job can no longer read it."""
        try:
            (self.workspace.tmp_dir / f"upload-{job_id}.csv").unlink(missing_ok=True)
        except OSError:  # pragma: no cover - cleanup is best-effort
            pass

    # ----------------------------------------------------------------- status

    async def _record_for(self, job_id: str) -> JobRecord:
        entry = self._jobs.get(job_id)
        if entry is not None and entry["record"] is not None:
            return entry["record"]
        try:
            return await self._offload(self.ledger.get, job_id)
        except KeyError:
            raise HttpError(404, f"no job {job_id!r}") from None

    @_route("GET", r"/v1/jobs/(?P<id>[\w.-]+)")
    async def _handle_status(self, request: Request) -> bytes:
        record = await self._record_for(request.path_params["id"])
        payload = asdict(record)
        payload["result_ready"] = (
            self._jobs.get(record.id, {}).get("result") is not None
        )
        return json_response(200, payload)

    @_route("GET", r"/v1/jobs")
    async def _handle_list(self, request: Request) -> bytes:
        records = [asdict(record) for record in await self._offload(self.ledger.list)]
        return json_response(200, {"jobs": records})

    async def _result_for(self, job_id: str) -> dict:
        record = await self._record_for(job_id)
        if record.status in ("queued", "running", "retrying"):
            raise HttpError(
                409,
                f"job {job_id} is {record.status}; result not ready",
                headers={"Retry-After": "1"},
            )
        if record.status == "failed":
            raise HttpError(409, f"job {job_id} failed: {record.error}")
        if record.status == "cancelled":
            raise HttpError(409, f"job {job_id} was cancelled")
        entry = self._jobs.get(job_id)
        result = entry.get("result") if entry else None
        if result is None:
            raise HttpError(
                404,
                f"job {job_id} is done but its result is no longer resident "
                "(resubmit; the run store will answer it)",
            )
        return result

    @_route("GET", r"/v1/jobs/(?P<id>[\w.-]+)/result")
    async def _handle_result(self, request: Request) -> bytes:
        """Serve a done job's published table.

        Artifact-backed results (the default for row-carrying submissions)
        render from the memory-mapped workspace artifact off the event loop;
        either way the rendered body is cached on the resident job entry, so
        a repeat fetch is a cache hit that re-renders nothing (the
        ``repro_result_renders_total`` / ``repro_result_cache_hits_total``
        counters make that observable).
        """
        job_id = request.path_params["id"]
        result = await self._result_for(job_id)
        artifact = result.get("result_artifact")
        if "rows" not in result and not artifact:
            raise HttpError(
                409,
                "job was submitted with include_rows=false; "
                "only /metrics is available",
            )
        format_name = request.query.get("format", "json")
        if format_name not in ("json", "csv"):
            raise HttpError(
                400, f"unknown result format {format_name!r} (json or csv)"
            )
        entry = self._jobs.get(job_id)
        cache: dict = entry.setdefault("render_cache", {}) if entry is not None else {}
        if format_name == "csv":
            body = cache.get("csv")
            if body is not None:
                self._result_cache_hits.inc(format="csv")
                return render_response(200, body, content_type="text/csv")
            if artifact:
                body = await self._render_artifact(artifact["path"], "csv")
            else:
                body = await self._offload(
                    self._render_rows_csv, result["header"], result["rows"]
                )
            self._result_renders.inc(format="csv")
            cache["csv"] = body
            return render_response(200, body, content_type="text/csv")
        if "rows" in result:
            return json_response(200, result)
        rows = cache.get("rows")
        if rows is not None:
            self._result_cache_hits.inc(format="json")
        else:
            rows = await self._render_artifact(artifact["path"], "rows")
            self._result_renders.inc(format="json")
            cache["rows"] = rows
        return json_response(200, {**result, "rows": rows})

    async def _render_artifact(self, path: str, what: str):
        """Render ``csv`` bytes or ``rows`` lists from an on-disk artifact."""
        from repro.engine.columnstore import ResultArtifact
        from repro.errors import DataSourceError

        def render():
            opened = ResultArtifact.mmap(path)
            return opened.csv_bytes() if what == "csv" else opened.rows()

        try:
            return await self._offload(render)
        except DataSourceError as error:
            raise HttpError(
                404,
                f"result artifact is no longer available ({error}); "
                "resubmit and the run store will answer it",
            ) from None

    @staticmethod
    def _render_rows_csv(header: list, rows: list) -> bytes:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        return buffer.getvalue().encode("utf-8")

    def _resident_artifact_bytes(self) -> float:
        """Gauge callback: on-disk bytes of every resident job's artifact."""
        return float(
            sum(
                (entry.get("result") or {}).get("result_artifact", {}).get("bytes", 0)
                for entry in self._jobs.values()
            )
        )

    @_route("GET", r"/v1/jobs/(?P<id>[\w.-]+)/metrics")
    async def _handle_job_metrics(self, request: Request) -> bytes:
        result = await self._result_for(request.path_params["id"])
        payload = {key: value for key, value in result.items() if key not in ("rows", "header")}
        return json_response(200, payload)

    @_route("GET", r"/v1/jobs/(?P<id>[\w.-]+)/trace")
    async def _handle_trace(self, request: Request) -> bytes:
        """The span tree recorded for one job (submitted to *this* process).

        Traces are memory-resident diagnostics: a job from a previous server
        process, or one evicted from the bounded trace store, answers 404
        even though its ledger record still exists.
        """
        job_id = request.path_params["id"]
        trace = self.traces.get(job_id)
        if trace is None:
            raise HttpError(
                404,
                f"no trace for job {job_id!r} (traces are held in memory "
                "for recent jobs of this server process only)",
            )
        return json_response(200, {"id": job_id, **trace})

    @_route("POST", r"/v1/jobs/(?P<id>[\w.-]+)/cancel")
    async def _handle_cancel(self, request: Request) -> bytes:
        job_id = request.path_params["id"]
        record = await self._record_for(job_id)
        if record.is_terminal():
            raise HttpError(409, f"job {job_id} is already {record.status}")
        if not self.pool.cancel(job_id):
            if job_id in self._pending_submits:
                # The submission is still between its ledger create and the
                # enqueue (spool write in flight): flag it so the submitter
                # skips pool.submit, and cancel the ledger record here.
                self._cancel_requested.add(job_id)
            else:
                raise HttpError(
                    409,
                    f"job {job_id} is {record.status}; only queued or "
                    "retry-waiting jobs can be cancelled",
                )
        try:
            record = await self._offload(self.ledger.cancel, job_id)
        except JobStateError as error:
            raise HttpError(409, str(error)) from None
        self._jobs_terminal.inc(state="cancelled")
        self._discard_spool(job_id)
        self._remember(job_id, record=record)
        return json_response(200, asdict(record))

    # ---------------------------------------------------------- introspection

    @_route("GET", r"/v1/algorithms")
    async def _handle_algorithms(self, request: Request) -> bytes:
        entries = [
            {
                "name": info.name,
                "description": info.description,
                "complexity": info.complexity,
                "approximation": info.approximation,
                "supports_sharding": info.supports_sharding,
                "deterministic": info.deterministic,
            }
            for info in algorithm_registry.entries()
        ]
        return json_response(200, {"algorithms": entries})

    @_route("GET", r"/v1/metrics")
    async def _handle_metrics(self, request: Request) -> bytes:
        entries = [
            {
                "name": info.name,
                "description": info.description,
                "needs_source": info.needs_source,
                "better": info.better,
            }
            for info in metric_registry.entries()
        ]
        return json_response(200, {"metrics": entries})

    @_route("GET", r"/v1/privacy")
    async def _handle_privacy(self, request: Request) -> bytes:
        entries = [
            {
                "name": info.name,
                "description": info.description,
                "params": info.params_schema,
                "enforceable": info.enforceable,
                "default": info.name == "frequency-l",
            }
            for info in privacy_registry.entries()
        ]
        return json_response(200, {"privacy_models": entries})

    @_route("POST", r"/v1/plan")
    async def _handle_plan(self, request: Request) -> bytes:
        payload = request.json()
        algorithm = payload.get("algorithm", "TP+")
        try:
            info = algorithm_registry.get(algorithm)
        except UnknownEntryError:
            raise HttpError(400, f"unknown algorithm {algorithm!r}") from None
        n = _require_int(payload, "n", minimum=0)
        d = _require_int(payload, "d", minimum=1) if "d" in payload else 1
        spec, l = self._resolve_spec_and_l(payload)
        from repro.service.planner import default_planner

        try:
            decision = default_planner().decide(
                info,
                n=n,
                d=d,
                l=l,
                shards=payload.get("shards"),
                workers=payload.get("workers"),
                privacy=spec,
            )
        except ValueError as error:
            raise HttpError(400, str(error)) from None
        return json_response(
            200,
            {
                "shards": decision.shards,
                "workers": decision.workers,
                "estimated_seconds": decision.estimated_seconds,
                "privacy": decision.privacy,
                "reasons": list(decision.reasons),
                "candidates": [list(entry) for entry in decision.candidates],
            },
        )

    @_route("GET", r"/v1/telemetry")
    async def _handle_telemetry(self, request: Request) -> bytes:
        """Operational telemetry in the Prometheus text exposition format.

        Distinct from ``/v1/metrics``, which lists the *quality*-metric
        registry (information loss etc.) a submission can request.
        """
        body = self.telemetry.render().encode("utf-8")
        return render_response(
            200, body, content_type="text/plain; version=0.0.4; charset=utf-8"
        )

    @_route("GET", r"/v1/health")
    async def _handle_health(self, request: Request) -> bytes:
        uptime = time.time() - self._started_at if self._started_at else 0.0
        return json_response(
            200,
            {
                "status": "draining" if self._draining else "ok",
                "version": __version__,
                "uptime_seconds": uptime,
                "workers": self.pool.workers,
                "queue_depth": self.pool.depth,
                "queue_cap": self.pool.queue_cap,
                "running": self.pool.running,
                "callback_errors": self.pool.callback_errors,
                "pool": {
                    "retries": self.pool.retries,
                    "pool_restarts": self.pool.pool_restarts,
                    "timeouts": self.pool.timeouts,
                    "quarantined": self.pool.quarantined,
                    "retrying": self.pool.retrying,
                    "max_attempts": self.pool.max_attempts,
                    "job_timeout_seconds": self.pool.job_timeout_seconds,
                },
                "rate_limit": {
                    "enabled": self.limiter.enabled,
                    "rate": self.limiter.rate,
                    "burst": self.limiter.burst if self.limiter.enabled else None,
                },
                "store": self.use_store,
                "workspace": str(self.workspace.root),
                "jobs": dict(self.stats),
            },
        )
