"""Bounded async worker pool: queue, lifecycle callbacks, process fan-out.

The HTTP layer never runs an anonymization itself: an accepted job is pushed
onto a bounded :class:`asyncio.Queue` as the JSON form of its
:class:`~repro.server.jobspec.JobSpec`, the shape its ledger record
holds.  A fixed set of drainer coroutines pops specs and executes them on a
``concurrent.futures`` executor — by default a :class:`ProcessPoolExecutor`,
so CPU-bound runs overlap across cores while the event loop stays free to
answer status polls.  The queue bound is the server's backpressure contract:
:meth:`WorkerPool.submit` raises :class:`QueueFullError` instead of buffering
without limit, and the HTTP layer turns that into ``429 + Retry-After``.

:func:`execute_job` (the executor entry point) parses that dict once
(:meth:`~repro.server.jobspec.JobSpec.from_json`) and runs the spec's plan,
at the job's core budget, on a fresh :class:`~repro.engine.core.Engine`
that caches through the workspace's persistent
:class:`~repro.service.store.RunStore` (or not at all without
``use_store``).  Each job re-opens the store, which reads nothing until a
lookup memory-maps its one record, so a repeated identical submission is a
**store hit** even though every job runs in a different process.

Lifecycle transitions (``running``/``retrying``/``done``/``failed``) are
reported through a single callback invoked on the event-loop thread; the
server wires it to its :class:`~repro.server.jobs.JobTable`, the one writer
of job state (resident index, ledger appends, counters, logs and spans).
The pool itself keeps only scheduling state: what is queued, running or
waiting out a retry backoff.

**Fault tolerance** (the at-least-once half of the serving contract):

* a worker dying mid-job (segfault, OOM kill) surfaces as
  :class:`~concurrent.futures.BrokenExecutor`; the pool rebuilds the
  executor *without dropping queued work* (counted by
  ``repro_pool_restarts_total``) and re-enqueues the job with exponential
  backoff as a ``retrying`` transition;
* ``job_timeout_seconds`` bounds each attempt's wall clock; a timed-out
  attempt on a process executor is killed (the worker processes are
  terminated and the pool rebuilt — in-flight collateral jobs crash-retry)
  and the job retried.  Thread executors cannot kill a worker, so the
  attempt is abandoned to finish in the background and its result discarded;
* a job whose retryable failures exhaust ``max_attempts`` is **quarantined**
  — failed terminally with ``quarantined=True`` — so a poison job cannot
  crash-loop the pool forever.

Deterministic exceptions from the job itself (bad spec, ineligible table)
still fail immediately: retrying them would burn attempts on a failure that
cannot change.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import os
import re
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import replace
from typing import Callable

from repro.engine.cache import ResultCache
from repro.engine.core import Engine
from repro.errors import JobTimeoutError, WorkerCrashError
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.server.jobspec import JobSpec
from repro.service.workspace import Workspace

__all__ = ["QueueFullError", "WorkerPool", "execute_job"]

#: A transition callback: ``callback(job_id, status, result=None, error="",
#: attempts=0, retry_in=0.0, quarantined=False)``.  It may be a plain
#: function or a coroutine function; coroutines are awaited on the event
#: loop, so a callback doing slow I/O can offload it without blocking the
#: drainers.
TransitionCallback = Callable[..., object]


class QueueFullError(Exception):
    """The pool's queue is at capacity; the caller should retry later.

    ``retry_after`` is the pool's estimate of when a slot will free up — the
    HTTP layer forwards it as the ``Retry-After`` header.
    """

    def __init__(self, depth: int, capacity: int, retry_after: float) -> None:
        super().__init__(f"job queue full ({depth}/{capacity})")
        self.depth = depth
        self.capacity = capacity
        self.retry_after = retry_after


# --------------------------------------------------------------------- worker


def _process_worker_init() -> None:
    """Detach a forked pool worker from the parent's signal plumbing.

    ``asyncio.loop.add_signal_handler`` (used by ``serve``) installs a
    Python-level handler plus a wakeup fd — a socketpair whose read end the
    parent's event loop watches.  A forked worker inherits *both*, so a
    SIGTERM delivered to the worker (executor healing, or the executor's own
    broken-pool cleanup) would make the worker write the signal number into
    the shared wakeup fd and the **parent** would observe its own shutdown
    signal: killing one worker would gracefully stop the whole server.
    Restoring the default dispositions here severs that link.
    """
    import signal

    signal.set_wakeup_fd(-1)
    for signal_number in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signal_number, signal.SIG_DFL)


def execute_job(
    spec: dict,
    workspace_root: str | None,
    use_store: bool,
    core_budget: int = 1,
) -> dict:
    """Executor entry point: run one job spec, return a picklable result.

    ``core_budget`` caps the engine workers this job may use: its share of
    the host (:func:`repro.service.planner.per_job_worker_budget`), so the
    product ``pool workers × budget`` never oversubscribes the machine.  The
    payload's ``trace`` is the job's measured span tree.
    """
    job = JobSpec.from_json(spec)
    if job.include_rows:
        artifact_dir = _result_artifact_dir(job.job_id, workspace_root)
    plan = replace(job.plan, workers=core_budget)
    # The job's span tree rides back to the server in the payload — the
    # only bridge out of a pool worker process.
    with trace.record("job") as root:
        cache = ResultCache()
        if use_store:
            with trace.span("store-open"):
                cache = ResultCache(store=Workspace(workspace_root).run_store())
        report = Engine(cache=cache).run(plan)
        trace.graft(report.trace)
        generalized = report.generalized
        if job.include_rows:
            from repro.engine.columnstore import RESULT_FORMAT_NAME, ResultArtifact

            # The group-level arrays go to disk under the workspace and only
            # their path rides back through the pickle channel — the n
            # row-string lists are never built.
            with trace.span("artifact"):
                artifact = ResultArtifact.from_generalized(generalized)
                artifact_bytes = artifact.save(artifact_dir)
    payload: dict = {
        "label": report.label,
        "algorithm": plan.algorithm,
        "l": plan.l,
        "privacy": report.privacy.to_dict() if report.privacy is not None else None,
        "enforcement_merges": report.enforcement_merges,
        "n": report.n,
        "d": report.d,
        "stars": generalized.star_count(),
        "suppressed_tuples": generalized.suppressed_tuple_count(),
        "groups": len(generalized.groups()),
        "phase_reached": report.phase_reached,
        "metric_values": dict(report.metric_values),
        "store_hit": report.store_hit,
        "verified": report.verified,
        "seconds": report.seconds,
        "shard_sizes": list(report.shard_sizes),
        "trace": root,
        "request_id": report.request_id,
        "decision": {
            "shards": report.decision.shards,
            "workers": report.decision.workers,
        }
        if report.decision is not None
        else None,
    }
    if job.include_rows:
        payload["header"] = artifact.header
        payload["result_artifact"] = {
            "path": artifact_dir,
            "rows": artifact.n,
            "bytes": artifact_bytes,
            "format": RESULT_FORMAT_NAME,
        }
    return payload


_ARTIFACT_KEY_PATTERN = re.compile(r"[\w.-]{1,128}")


def _result_artifact_dir(job_id: str, workspace_root: str | None) -> str:
    """Where this job saves its result artifact: ``results/<job_id>``.

    Keyed by the ledger job id the pool stamps on every spec — server-minted,
    so directories never collide across concurrent jobs and the key is
    always path-safe (the pattern check is defence in depth, not a trust
    boundary).  Raises :class:`ValueError` when the spec has no valid job id.
    """
    if not _ARTIFACT_KEY_PATTERN.fullmatch(job_id) or job_id.startswith("."):
        raise ValueError(f"job spec needs a path-safe job_id, got {job_id!r}")
    return str(Workspace(workspace_root).results_dir / job_id)


# ----------------------------------------------------------------------- pool


class WorkerPool:
    """A bounded asyncio job queue drained onto a process/thread executor."""

    def __init__(
        self,
        workers: int = 2,
        queue_cap: int = 16,
        transition: TransitionCallback | None = None,
        executor_kind: str = "process",
        workspace_root: str | None = None,
        use_store: bool = True,
        job_timeout_seconds: float | None = None,
        max_attempts: int = 3,
        retry_backoff_seconds: float = 0.5,
        max_retry_backoff_seconds: float = 30.0,
        metrics: MetricsRegistry | None = None,
        run_job: Callable[..., dict] = execute_job,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        if executor_kind not in ("process", "thread"):
            raise ValueError(f"unknown executor kind {executor_kind!r}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if job_timeout_seconds is not None and job_timeout_seconds <= 0:
            raise ValueError(
                f"job_timeout_seconds must be positive, got {job_timeout_seconds}"
            )
        if retry_backoff_seconds <= 0:
            raise ValueError(
                f"retry_backoff_seconds must be positive, got {retry_backoff_seconds}"
            )
        self.workers = workers
        #: Engine workers each job may use — the planner-governed share of
        #: the host left after the pool's own fan-out, replacing the old
        #: hard ``workers=1`` pin inside :func:`execute_job`.
        from repro.service.planner import per_job_worker_budget

        self.job_core_budget = per_job_worker_budget(workers, os.cpu_count() or 1)
        self.queue_cap = queue_cap
        self._transition = transition or (lambda *args, **kwargs: None)
        self._executor_kind = executor_kind
        self._workspace_root = workspace_root
        self._use_store = use_store
        #: What the executor runs per attempt: :func:`execute_job`'s
        #: arguments and result.  Tests wrap it to kill or delay workers.
        self._run_job = run_job
        self.job_timeout_seconds = job_timeout_seconds
        self.max_attempts = max_attempts
        self.retry_backoff_seconds = retry_backoff_seconds
        self.max_retry_backoff_seconds = max_retry_backoff_seconds
        self._queue: asyncio.Queue[tuple[str, dict]] = asyncio.Queue(maxsize=queue_cap)
        self._queued: set[str] = set()
        self._running: set[str] = set()
        self._cancelled: set[str] = set()
        #: Attempt starts per live job id (dropped at terminal transitions).
        self._attempts: dict[str, int] = {}
        #: Jobs waiting out their retry backoff -> the sleeping requeue task.
        self._retry_waits: dict[str, asyncio.Task] = {}
        #: Serializes executor rebuilds; the first drainer to observe a break
        #: rebuilds, the rest see a fresh executor and skip.
        self._rebuild_lock = asyncio.Lock()
        self._gate = asyncio.Event()
        self._gate.set()
        self._executor: Executor | None = None
        self._drainers: list[asyncio.Task] = []
        #: Seconds one queue slot is expected to take to free up; seeds the
        #: Retry-After estimate before any job has completed.
        self._recent_seconds = 0.5
        #: Recovery counters live on the (lock-guarded) obs registry — the
        #: single writer-safe home read by ``/v1/telemetry`` and
        #: ``/v1/health``.  A standalone pool gets a private registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._callback_errors = self.metrics.counter(
            "repro_pool_callback_errors_total",
            "Transition callbacks that raised and were swallowed to keep the "
            "drainer alive.",
        )
        self._retries = self.metrics.counter(
            "repro_pool_retries_total",
            "Job attempts re-enqueued with backoff after a retryable failure.",
        )
        self._pool_restarts = self.metrics.counter(
            "repro_pool_restarts_total",
            "Executor rebuilds after a worker crash or timeout kill.",
        )
        self._timeouts = self.metrics.counter(
            "repro_pool_timeouts_total",
            "Job attempts that exceeded the per-attempt wall-clock budget.",
        )
        self._quarantined = self.metrics.counter(
            "repro_pool_quarantined_total",
            "Jobs failed terminally after exhausting their attempt budget.",
        )
        self._attempt_seconds = self.metrics.histogram(
            "repro_job_attempt_seconds",
            "Wall-clock seconds of one executor attempt, by outcome.",
            ("outcome",),
        )
        self.metrics.gauge(
            "repro_queue_depth", "Jobs waiting in the pool queue."
        ).set_function(lambda: float(self._queue.qsize()))
        self.metrics.gauge(
            "repro_queue_capacity", "Admission cap of the pool queue."
        ).set(float(queue_cap))
        self.metrics.gauge(
            "repro_jobs_running", "Jobs currently executing on the pool."
        ).set_function(lambda: float(len(self._running)))
        self.metrics.gauge(
            "repro_jobs_retry_waiting", "Jobs waiting out a retry backoff."
        ).set_function(lambda: float(len(self._retry_waits)))

    # ------------------------------------------------------------- lifecycle

    def _build_executor(self) -> Executor:
        if self._executor_kind == "process":
            return ProcessPoolExecutor(
                max_workers=self.workers, initializer=_process_worker_init
            )
        return ThreadPoolExecutor(max_workers=self.workers)

    async def start(self) -> None:
        if self._drainers:
            raise RuntimeError("pool already started")
        self._executor = self._build_executor()
        self._drainers = [
            asyncio.create_task(self._drain(), name=f"pool-drainer-{index}")
            for index in range(self.workers)
        ]

    async def shutdown(self, grace_seconds: float = 10.0) -> tuple[list[str], list[str]]:
        """Stop draining and tear the executor down.

        In-flight jobs get ``grace_seconds`` to finish *and record their
        terminal transition* before the drainers are cancelled — cancelling
        first would compute the result in the worker and then throw it away,
        leaving the job ``running`` in the ledger forever.

        Returns ``(abandoned, interrupted)``: job ids that never started
        (still queued, waiting out a retry backoff, or already cancelled) and
        job ids whose run outlived the grace window (their transition was
        lost; the caller should move them to a terminal state).
        """
        self._gate.clear()  # nothing new starts; in-flight drainers continue
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace_seconds
        while self._running and loop.time() < deadline:
            await asyncio.sleep(0.05)
        # Snapshot the stragglers *before* cancelling: cancellation unwinds
        # each drainer's ``finally: self._running.discard(...)``, so reading
        # ``self._running`` afterwards always sees an empty set.
        interrupted = sorted(self._running)
        # Jobs parked in a retry backoff never started this attempt: cancel
        # their requeue timers and report them abandoned alongside the queue.
        retry_ids = set(self._retry_waits)
        for task in list(self._retry_waits.values()):
            task.cancel()
        for task in list(self._retry_waits.values()):
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._retry_waits.clear()
        for task in self._drainers:
            task.cancel()
        for task in self._drainers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._drainers = []
        abandoned = sorted(self._queued | self._cancelled | retry_ids)
        self._queued.clear()
        self._cancelled.clear()
        self._running.clear()
        self._attempts.clear()
        if self._executor is not None:
            # cancel_futures drops work that never started; join the workers
            # only when no job outlived the grace window — waiting on one
            # still mid-job would block the event loop for the rest of that
            # job, defeating the grace bound.  Interrupted *process* workers
            # are terminated outright so the interpreter's atexit join cannot
            # hang on them either (threads cannot be killed; they are left to
            # finish in the background).
            if interrupted and isinstance(self._executor, ProcessPoolExecutor):
                for process in list(
                    (getattr(self._executor, "_processes", None) or {}).values()
                ):
                    process.terminate()
            self._executor.shutdown(wait=not interrupted, cancel_futures=True)
            self._executor = None
        return abandoned, interrupted

    # ------------------------------------------------------------ submission

    @property
    def depth(self) -> int:
        """Jobs waiting in the queue (not yet picked up by a drainer)."""
        return self._queue.qsize()

    @property
    def running(self) -> int:
        return len(self._running)

    @property
    def retrying(self) -> int:
        """Jobs currently waiting out a retry backoff."""
        return len(self._retry_waits)

    def retry_after(self) -> float:
        """Seconds after which a rejected client should retry."""
        return max(1.0, math.ceil(self._recent_seconds))

    def submit(self, job_id: str, spec: dict) -> None:
        """Queue one job; raises :class:`QueueFullError` at capacity."""
        try:
            self._queue.put_nowait((job_id, spec))
        except asyncio.QueueFull:
            raise QueueFullError(
                self._queue.qsize(), self.queue_cap, self.retry_after()
            ) from None
        self._queued.add(job_id)
        self._attempts[job_id] = 0

    async def requeue(self, job_id: str, spec: dict, attempts: int = 0) -> None:
        """Re-enqueue a replayed job, bypassing the admission cap.

        Replay must not drop jobs, so instead of :class:`QueueFullError` this
        *awaits* a queue slot (the drainers are already running and free them
        up).  ``attempts`` restores the job's spent budget from the ledger,
        clamped so a replayed job always gets at least one more attempt — the
        restart was the server's failure, not the job's.
        """
        self._attempts[job_id] = min(max(attempts, 0), self.max_attempts - 1)
        self._queued.add(job_id)
        await self._queue.put((job_id, spec))

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or backoff-waiting job; ``False`` once it started."""
        if job_id in self._queued:
            self._queued.discard(job_id)
            self._cancelled.add(job_id)
            return True
        task = self._retry_waits.pop(job_id, None)
        if task is not None:
            task.cancel()
            self._attempts.pop(job_id, None)
            return True
        return False

    # ------------------------------------------------------- test/ops levers

    def pause(self) -> None:
        """Hold drainers before their next run.

        A drainer idle inside ``queue.get()`` already passed the gate, so it
        may still *pop* one job — but the second gate check holds it unrun
        (and uncancelled-marked), so a paused pool never starts work.  Call
        before :meth:`start` to freeze the pool from birth (nothing is popped
        at all) — the deterministic setup the backpressure tests rely on.
        """
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    # --------------------------------------------------------------- healing

    async def _heal_executor(self, broken: Executor | None) -> None:
        """Replace a broken (or wedged) executor without dropping queued work.

        Serialized by a lock: the first drainer to observe the break rebuilds
        and counts a restart; later observers (whose in-flight futures failed
        on the *same* executor object) find it already replaced and skip.
        Old process workers are terminated so a wedged or dying process can
        never outlive its executor; their in-flight collateral jobs surface
        as :class:`BrokenExecutor` to their drainers and retry through the
        normal path.  Thread workers cannot be killed — the old thread
        executor is abandoned to finish its orphan work in the background.
        """
        async with self._rebuild_lock:
            if broken is None or self._executor is not broken:
                return
            self._pool_restarts.inc()
            if isinstance(broken, ProcessPoolExecutor):
                for process in list(
                    (getattr(broken, "_processes", None) or {}).values()
                ):
                    process.terminate()
            self._executor = self._build_executor()
            broken.shutdown(wait=False, cancel_futures=True)

    async def _retry_or_quarantine(
        self, job_id: str, spec: dict, attempt: int, error: Exception
    ) -> None:
        """Schedule a backoff re-enqueue, or quarantine an exhausted job."""
        reason = f"{type(error).__name__}: {error}"
        if attempt >= self.max_attempts:
            self._quarantined.inc()
            self._attempts.pop(job_id, None)
            await self._notify(
                job_id,
                "failed",
                error=f"quarantined after {attempt} attempts; last error: {reason}",
                attempts=attempt,
                quarantined=True,
            )
            return
        self._retries.inc()
        delay = min(
            self.retry_backoff_seconds * (2 ** (attempt - 1)),
            self.max_retry_backoff_seconds,
        )
        # Park the job before reporting it: a caller that sees 'retrying'
        # can cancel the backoff wait at once.
        self._retry_waits[job_id] = asyncio.create_task(
            self._requeue_later(job_id, spec, delay), name=f"pool-retry-{job_id}"
        )
        await self._notify(
            job_id, "retrying", error=reason, attempts=attempt, retry_in=delay
        )

    async def _requeue_later(self, job_id: str, spec: dict, delay: float) -> None:
        try:
            await asyncio.sleep(delay)
        except asyncio.CancelledError:
            self._retry_waits.pop(job_id, None)
            raise
        # No await between these two statements: cancel() must never observe
        # a job that is in neither the retry-wait map nor the queued set.
        self._retry_waits.pop(job_id, None)
        self._queued.add(job_id)
        await self._queue.put((job_id, spec))

    # --------------------------------------------------------------- drainer

    async def _notify(self, job_id: str, status: str, **kwargs) -> None:
        """Invoke the transition callback, awaiting it when it is a coroutine.

        Callback exceptions are counted, not propagated: an escape here would
        kill the drainer task and permanently shrink the pool — with one
        worker, the server would keep accepting jobs nothing ever runs.
        (``CancelledError`` still propagates so shutdown can unwind us.)
        """
        try:
            outcome = self._transition(job_id, status, **kwargs)
            if inspect.isawaitable(outcome):
                await outcome
        except Exception:  # noqa: BLE001 - drainer survival beats strictness
            self._callback_errors.inc()

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._gate.wait()
            job_id, spec = await self._queue.get()
            try:
                # Re-check after the pop: a drainer that was already parked in
                # get() when pause() was called must hold its job unrun.
                await self._gate.wait()
                if job_id in self._cancelled:
                    self._cancelled.discard(job_id)
                    self._attempts.pop(job_id, None)
                    continue
                self._queued.discard(job_id)
                self._running.add(job_id)
                attempt = self._attempts.get(job_id, 0) + 1
                self._attempts[job_id] = attempt
                await self._notify(job_id, "running", attempts=attempt)
                started = loop.time()
                executor = self._executor
                try:
                    assert executor is not None
                    call = loop.run_in_executor(
                        executor,
                        self._run_job,
                        # The ledger job id rides along so the worker can key
                        # its result artifact by it (server-minted: path-safe
                        # and unique across concurrent jobs).
                        {**spec, "job_id": job_id},
                        self._workspace_root,
                        self._use_store,
                        self.job_core_budget,
                    )
                    if self.job_timeout_seconds is not None:
                        result = await asyncio.wait_for(
                            call, timeout=self.job_timeout_seconds
                        )
                    else:
                        result = await call
                except TimeoutError:
                    # The attempt outlived its wall-clock budget: enforce the
                    # bound by killing the executor's workers (process pools;
                    # thread attempts are abandoned — see _heal_executor) and
                    # retry the job.
                    self._timeouts.inc()
                    self._attempt_seconds.observe(
                        loop.time() - started, outcome="timeout"
                    )
                    await self._heal_executor(executor)
                    await self._retry_or_quarantine(
                        job_id,
                        spec,
                        attempt,
                        JobTimeoutError(
                            f"attempt {attempt} exceeded the "
                            f"{self.job_timeout_seconds}s job timeout"
                        ),
                    )
                except BrokenExecutor as broken:
                    # The worker died mid-job (segfault, OOM kill).  Heal the
                    # pool, then retry: the crash says nothing about the job
                    # until its budget runs out.
                    self._attempt_seconds.observe(
                        loop.time() - started, outcome="crashed"
                    )
                    await self._heal_executor(executor)
                    await self._retry_or_quarantine(
                        job_id,
                        spec,
                        attempt,
                        WorkerCrashError(
                            f"worker died mid-job ({type(broken).__name__}: {broken})"
                        ),
                    )
                except Exception as error:  # noqa: BLE001 - reported, not dropped
                    self._attempt_seconds.observe(
                        loop.time() - started, outcome="failed"
                    )
                    self._attempts.pop(job_id, None)
                    await self._notify(
                        job_id,
                        "failed",
                        error=f"{type(error).__name__}: {error}",
                        attempts=attempt,
                    )
                else:
                    # Exponential moving average of job seconds -> Retry-After.
                    elapsed = loop.time() - started
                    self._recent_seconds = 0.7 * self._recent_seconds + 0.3 * elapsed
                    self._attempt_seconds.observe(elapsed, outcome="done")
                    self._attempts.pop(job_id, None)
                    await self._notify(job_id, "done", result=result, attempts=attempt)
                finally:
                    self._running.discard(job_id)
            finally:
                self._queue.task_done()
