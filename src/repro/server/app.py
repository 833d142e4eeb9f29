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
``GET  /v1/jobs/{id}/metrics``        metric values / seconds / cache tier of a done job
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

A submission (JSON body or CSV-upload query string) is parsed once, before
queueing, into a :class:`~repro.server.jobspec.JobSpec`; this module keeps
only the CSV-path allowlist (403) and the upload spool.  The spec runs
asynchronously on the bounded :class:`~repro.server.pool.WorkerPool`.  The
job lifecycle (``queued -> running -> [retrying ->] done|failed|cancelled``)
has one writer, the :class:`~repro.server.jobs.JobTable`: the handlers, the
pool's transition callback, boot replay and shutdown all move jobs through
it, and it persists every move to the workspace's
:class:`~repro.service.jobs.JobLedger`.  So ``ldiversity jobs list`` sees
server jobs and vice versa, and a restarted server can **replay** every
non-terminal job it finds at boot (after compacting the ledger).  Together
with the pool's worker-death recovery and per-job timeouts this makes
serving at-least-once: a SIGKILL'd server or a segfaulting worker delays
jobs, it does not lose them.  Two backpressure mechanisms protect the
service under load, both answered with ``Retry-After``:

* **queue depth** — a full worker queue rejects the submission with ``429``
  (the estimate is an EMA of recent job durations);
* **per-client rate limiting** — an optional token bucket per ``X-Client-Id``
  (or peer address) rejects bursts with ``429`` before they reach the queue.

``503`` is reserved for the draining window during shutdown.  Identical
repeated submissions are served from the persistent run store by the worker
(the result carries ``store_hit: true``) instead of being recomputed; the
worker still opens the store, which parses every stored record, per job.
"""

from __future__ import annotations

import asyncio
import contextlib
import csv
import io
import logging
import re
import shutil
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Awaitable, Callable

from repro._version import __version__
from repro.engine.registry import algorithm_registry, metric_registry
from repro.engine.sources import CsvSource
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, TraceStore, new_request_id
from repro.privacy.spec import privacy_registry
from repro.server.jobs import JobTable
from repro.server.jobspec import (
    JobSpec,
    SpecError,
    algorithm_info,
    privacy_and_l,
    require_int,
)
from repro.server.pool import QueueFullError, WorkerPool, execute_job
from repro.server.protocol import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    Request,
    json_response,
    parse_json,
    read_request,
    render_response,
    splice_header,
)
from repro.server.ratelimit import RateLimiter
from repro.service.jobs import JobLedger, JobRecord
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


#: The spellings a CSV upload's ``include_rows`` query parameter accepts.
_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _reading(job: JobSpec, path: Path) -> JobSpec:
    """``job`` with its CSV source read from ``path``."""
    source = replace(job.plan.source, path=str(path))
    return replace(job, plan=replace(job.plan, source=source))


def _inline_csv(rows: object, columns: object, source: CsvSource) -> bytes:
    """Inline ``rows`` (objects, or lists under ``columns``) as CSV bytes."""
    names = [*source.qi_names, source.sa_name]
    if not isinstance(rows, list) or not rows:
        raise HttpError(400, "'rows' must be a non-empty list")
    if isinstance(rows[0], dict):
        columns = names
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
        missing = [name for name in names if name not in columns]
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
    return buffer.getvalue().encode("utf-8")


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
        run_job: Callable[..., dict] = execute_job,
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
        self.max_resident_jobs = max(max_resident_jobs, queue_cap + workers + 1)
        #: The one writer of job state.  Results of jobs submitted to *this*
        #: server process are resident up to ``max_resident_jobs``; beyond
        #: that the oldest terminal entries are evicted (status then falls
        #: back to the ledger, and an evicted result re-answers from the run
        #: store on resubmission).
        self.jobs = JobTable(
            JobLedger(self.workspace.jobs_path), self.workspace, self.telemetry,
            self.traces, self.max_resident_jobs,
        )
        self.pool = WorkerPool(
            workers=workers,
            queue_cap=queue_cap,
            transition=self.jobs.transition,
            executor_kind=executor_kind,
            workspace_root=str(self.workspace.root),
            use_store=use_store,
            job_timeout_seconds=job_timeout_seconds,
            max_attempts=max_attempts,
            retry_backoff_seconds=retry_backoff_seconds,
            metrics=self.telemetry,
            run_job=run_job,
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
        self._jobs_rejected = self.telemetry.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected before queueing, by reason.",
            ("reason",),
        )
        self._jobs_replayed = self.telemetry.counter(
            "repro_jobs_replayed_total",
            "Non-terminal ledger jobs re-enqueued at boot (crash recovery).",
        )
        self._compaction_reclaimed = self.telemetry.gauge(
            "repro_ledger_compaction_reclaimed",
            "Superseded ledger records reclaimed by the boot-time compaction.",
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
        #: Whether start() re-enqueues the ledger's non-terminal jobs.  On by
        #: default (the crash-recovery contract); tests that stage ledgers
        #: by hand opt out.
        self.replay = replay
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
            "done": int(self.jobs.terminal.value(state="done")),
            "failed": int(self.jobs.terminal.value(state="failed")),
            "cancelled": int(self.jobs.terminal.value(state="cancelled")),
            "rejected_queue_full": int(self._jobs_rejected.value(reason="queue_full")),
            "rejected_rate_limited": int(
                self._jobs_rejected.value(reason="rate_limited")
            ),
            "store_hits": int(self.jobs.store_hits.total()),
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
        reclaimed = await self.jobs.compact()
        self._compaction_reclaimed.set(float(reclaimed))
        if reclaimed:
            _LOG.info("ledger compaction reclaimed %d superseded records", reclaimed)
        # Result artifacts from a previous server process are orphans: their
        # resident results died with that process (done jobs re-answer from
        # the run store on resubmission) and replayed jobs write fresh ones.
        results = self.workspace.results_dir
        await self._offload(shutil.rmtree, results, ignore_errors=True)
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
        first — their attempt died with the old process.  A record whose spec
        does not parse (CLI and pre-durability records carry none) is logged
        and left alone: the CLI process that owns it may still be live, and
        failing another writer's job here would race it.
        """
        for record in await self._offload(self.jobs.ledger.list):
            if record.is_terminal():
                continue
            try:
                job = JobSpec.from_json(record.spec)
            except SpecError as error:
                _LOG.warning(
                    "not replaying %s (%s): %s", record.id, record.status, error
                )
                continue
            self.jobs.load(record)
            source = job.plan.source
            if isinstance(source, CsvSource) and not source.path:
                # An uploaded CSV spools next to the workspace under the job
                # id; reconstruct the path the same way the submitter did.
                spool = self.jobs.spool_path(record.id)
                if not spool.exists():
                    await self.jobs.transition(
                        record.id,
                        "failed",
                        error="upload spool lost across server restart",
                        attempts=record.attempts,
                    )
                    continue
                job = _reading(job, spool)
            if record.status == "running":
                record = await self.jobs.transition(
                    record.id,
                    "retrying",
                    error="interrupted by server restart",
                    attempts=record.attempts,
                )
                if record is None or record.is_terminal():  # pragma: no cover - racy
                    continue
            self.traces.begin(record.id, record.request_id)
            self.traces.mark(record.id, "queued")
            await self.pool.requeue(record.id, job.to_json(), attempts=record.attempts)
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
            await self.jobs.cancel(job_id)
        for job_id in interrupted:
            # The run outlived the grace window: the worker finished (or was
            # torn down) without its drainer recording a terminal state.
            # Close the lifecycle so clients never poll "running" forever.
            await self.jobs.cancel(
                job_id, error="server shut down before the result was recorded"
            )

    @staticmethod
    async def _offload(function, *args, **kwargs):
        """Run blocking disk I/O (ledger reads, spool writes, renders) off the
        loop, where waiting on another writer's lock stalls no connection."""
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
            except SpecError as error:
                response = json_response(400, {"error": str(error)})
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
            label, job, spool = self._upload_job(request)
        else:
            label, job, spool = self._json_job(request)

        # The full spec is persisted on the queued record (with an upload's
        # spool path still empty — replay reconstructs it from the job id),
        # so a restarted server can re-enqueue the job without the client.
        record = await self.jobs.create(
            label=label,
            algorithm=job.plan.algorithm,
            l=job.plan.l,
            privacy=job.plan.resolved_privacy().to_dict(),
            client=request.client,
            spec=job.to_json(),
            max_attempts=self.pool.max_attempts,
            request_id=request.request_id,
        )
        if spool is not None:
            # Spool files are named by job id so concurrent uploads never
            # clash.  A failed write withdraws the job: the pool never saw
            # it, so nothing else would ever close its lifecycle.
            try:
                path = self.jobs.spool_path(record.id)
                await self._offload(path.write_bytes, spool)
            except OSError as error:
                await self.jobs.cancel(record.id, counted=False)
                raise HttpError(500, f"failed to spool the upload: {error}") from None
            job = _reading(job, path)
        # The draining flag and queue capacity were pre-checked, but the
        # offloaded awaits above let concurrent submissions, cancels, or a
        # shutdown that already harvested the pool race past them.
        # Everything from here through pool.submit is await-free.
        current = self.jobs.record(record.id)
        if current is None or current.is_terminal():
            # Cancelled while in the submission window (queued in the table,
            # unknown to the pool): the cancel closed the lifecycle, so only
            # the spool the write above just finished is left to drop.
            self.jobs.discard_spool(record.id)
            payload = {"id": record.id, "status": "cancelled"}
            return json_response(202, {**payload, "queue_depth": self.pool.depth})
        if self._draining:
            await self.jobs.cancel(record.id, counted=False)
            raise HttpError(
                503, "server is shutting down", headers={"Retry-After": "1"}
            )
        try:
            self.pool.submit(record.id, job.to_json())
        except QueueFullError as error:
            self._jobs_rejected.inc(reason="queue_full")
            await self.jobs.cancel(record.id, counted=False)
            raise self._queue_full_error(
                error.depth, error.capacity, error.retry_after
            ) from None
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

    def _json_job(self, request: Request) -> tuple[str, JobSpec, bytes | None]:
        """Parse a JSON body (inline ``rows`` become an upload over ``qi``/``sa``);
        returns (label, spec, spooled CSV or None)."""
        payload = request.json()
        rows = payload.get("rows")
        if (rows is None) == (payload.get("source") is None):
            raise HttpError(400, "provide exactly one of 'rows' or 'source'")
        if rows is not None:
            qi, sa = payload.get("qi"), payload.get("sa")
            payload = {**payload, "source": {"kind": "csv", "path": "", "qi": qi, "sa": sa}}
        job = JobSpec.from_json({**payload, "request_id": request.request_id})
        source = job.plan.source
        if rows is not None:
            spool = _inline_csv(rows, payload.get("columns"), source)
            return f"inline({len(rows)} rows)", job, spool
        if isinstance(source, CsvSource):
            return source.path, _reading(job, self._allowlisted_csv_path(source.path)), None
        return source.label, job, None

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

    def _upload_job(self, request: Request) -> tuple[str, JobSpec, bytes]:
        """Parse a ``text/csv`` upload: its query string holds the spec fields."""
        fields: dict = dict(request.query)
        if "privacy" in fields:
            # The privacy object travels as a JSON-valued parameter (the CSV
            # body leaves nowhere else to put a structured field).
            fields["privacy"] = parse_json(
                fields["privacy"], "'privacy' must be a JSON object query parameter"
            )
        # Values that do not convert stay strings for the parser to refuse.
        for key in ("l", "shards", "seed"):
            with contextlib.suppress(KeyError, ValueError):
                fields[key] = int(fields[key])
        if "include_rows" in fields:
            flag = fields["include_rows"]
            fields["include_rows"] = _FLAGS.get(flag.lower(), flag)
        for key in ("qi", "metrics"):
            if key in fields:
                fields[key] = [name for name in fields[key].split(",") if name]
        qi, sa = fields.pop("qi", None), fields.pop("sa", None)
        fields["source"] = {"kind": "csv", "path": "", "qi": qi, "sa": sa}
        job = JobSpec.from_json({**fields, "request_id": request.request_id})
        header_line = request.body.split(b"\n", 1)[0].decode("utf-8", "replace")
        try:
            # Read as the ingest reads the file: a bare "\r" ends a line too.
            header = next(csv.reader(io.StringIO(header_line, newline="")), [])
        except csv.Error as error:
            raise HttpError(400, f"malformed csv header: {error}") from None
        missing = [name for name in (*qi, sa) if name not in header]
        if missing:
            raise HttpError(400, f"csv header {header} is missing columns {missing}")
        return f"upload({len(request.body)}B)", job, request.body

    # ----------------------------------------------------------------- status

    async def _record_for(self, job_id: str) -> JobRecord:
        record = await self.jobs.settled(job_id)
        if record is not None:
            return record
        try:
            return await self._offload(self.jobs.ledger.get, job_id)
        except KeyError:
            raise HttpError(404, f"no job {job_id!r}") from None

    @_route("GET", r"/v1/jobs/(?P<id>[\w.-]+)")
    async def _handle_status(self, request: Request) -> bytes:
        record = await self._record_for(request.path_params["id"])
        payload = asdict(record)
        payload["result_ready"] = self.jobs.result(record.id) is not None
        return json_response(200, payload)

    @_route("GET", r"/v1/jobs")
    async def _handle_list(self, request: Request) -> bytes:
        records = await self._offload(self.jobs.ledger.list)
        return json_response(200, {"jobs": [asdict(record) for record in records]})

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
        result = self.jobs.result(job_id)
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

        Every row-carrying job's result is a workspace artifact; it renders
        memory-mapped off the event loop, and the rendered body is cached on
        the resident job entry, so a repeat fetch is a cache hit that
        re-renders nothing (the ``repro_result_renders_total`` /
        ``repro_result_cache_hits_total`` counters make that observable).
        """
        job_id = request.path_params["id"]
        result = await self._result_for(job_id)
        artifact = result.get("result_artifact")
        if not artifact:
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
        cache = self.jobs.renders(job_id)
        if format_name == "csv":
            body = cache.get("csv")
            if body is not None:
                self._result_cache_hits.inc(format="csv")
                return render_response(200, body, content_type="text/csv")
            body = await self._render_artifact(artifact["path"], "csv")
            self._result_renders.inc(format="csv")
            cache["csv"] = body
            return render_response(200, body, content_type="text/csv")
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

    @_route("GET", r"/v1/jobs/(?P<id>[\w.-]+)/metrics")
    async def _handle_job_metrics(self, request: Request) -> bytes:
        result = await self._result_for(request.path_params["id"])
        payload = {key: value for key, value in result.items() if key != "header"}
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
        # A job queued in the table but unknown to the pool is in its
        # submission window; its submitter skips the enqueue once it sees
        # the cancel.
        in_window = record.status == "queued" and job_id in self.jobs
        if not self.pool.cancel(job_id) and not in_window:
            raise HttpError(
                409,
                f"job {job_id} is {record.status}; only queued or "
                "retry-waiting jobs can be cancelled",
            )
        record = await self.jobs.cancel(job_id)
        if record is None or record.status != "cancelled":  # pragma: no cover - racy
            raise HttpError(409, f"job {job_id} could not be cancelled")
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
        info = algorithm_info(payload)
        spec, l = privacy_and_l(payload)
        n = require_int(payload, "n", minimum=0)
        d = require_int(payload, "d", minimum=1) if "d" in payload else 1
        shards, workers = (
            require_int(payload, key, minimum=1)
            if payload.get(key) is not None
            else None
            for key in ("shards", "workers")
        )
        from repro.service.planner import default_planner

        try:
            decision = default_planner().decide(
                info,
                n=n,
                d=d,
                l=l,
                shards=shards,
                workers=workers,
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

        def pool_count(name: str) -> int:
            return int(self.telemetry.get(f"repro_pool_{name}_total").total())

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
                "callback_errors": pool_count("callback_errors"),
                "pool": {
                    "retries": pool_count("retries"),
                    "pool_restarts": pool_count("restarts"),
                    "timeouts": pool_count("timeouts"),
                    "quarantined": pool_count("quarantined"),
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
