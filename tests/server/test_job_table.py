"""The job table against a real ledger: random lifecycles, injected failures.

:class:`~repro.server.jobs.JobTable` is the server's one writer of job
state.  The property test drives it through random sequences of submit,
pool moves (running, retrying, done, failed), API cancel, shutdown-close
and out-of-band ledger cancels, with an ``OSError`` injected on random
ledger appends, and checks it against an independent model of the
lifecycle graph.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceStore
from repro.server.jobs import JobTable
from repro.service.jobs import (
    TERMINAL_STATUSES, JobLedger, JobStateError, can_transition,
)
from repro.service.workspace import Workspace

MOVES = {
    "running": "running",
    "retrying": "retrying",
    "done": "done",
    "failed": "failed",
    "cancel": "cancelled",
    "close": "cancelled",
}
JOB_SLOTS = 2

#: Step kinds, repeated to weight them: pool moves dominate, so lifecycles
#: get past their first move before a cancel ends them.
_KINDS = (
    ["running", "retrying", "done"] * 3
    + ["failed", "running", "submit", "cancel", "close", "oob-cancel"]
)
_steps = st.lists(
    st.tuples(
        st.sampled_from(_KINDS),
        st.integers(0, JOB_SLOTS - 1),
        st.sampled_from([False, False, False, True]),  # inject an OSError
        st.booleans(),  # a done move's payload is a store hit
    ),
    min_size=1,
    max_size=30,
)
_examples = itertools.count()


def _payload(store_hit: bool) -> dict:
    return {
        "n": 4, "d": 2, "stars": 1, "suppressed_tuples": 1, "groups": 2,
        "seconds": 0.01, "store_hit": store_hit,
        "metric_values": {}, "decision": None,
    }


class _Job:
    """The model's view of one job."""

    def __init__(self, record) -> None:
        self.status = "queued"
        self.attempts = 0
        self.ran = False
        self.disk_cancelled = False
        #: The table's latest append for this job reached the ledger and no
        #: other writer has touched the job since: memory and disk agree.
        self.synced = True
        self.history = [record]


def _spans(traces: TraceStore, job_id: str) -> list[str]:
    return [span["name"] for span in traces.get(job_id)["spans"]]


def _counters(registry: MetricsRegistry) -> dict:
    terminal = registry.get("repro_jobs_terminal_total")
    counts = {state: terminal.value(state=state) for state in TERMINAL_STATUSES}
    counts["store_hits"] = registry.get("repro_store_hits_total").total()
    return counts


async def _drive(root, steps) -> None:
    workspace = Workspace(root)
    ledger = JobLedger(workspace.jobs_path)
    registry, traces = MetricsRegistry(), TraceStore()
    table = JobTable(ledger, workspace, registry, traces, capacity=64)
    appended: list = []  # every record the table tried to append
    inject = [False]
    real_put, real_create = ledger.put, ledger.create

    def put(record):
        appended.append(record)
        if inject[0]:
            raise OSError("injected append failure")
        return real_put(record)

    def create(**fields):
        if inject[0]:
            raise OSError("injected append failure")
        return real_create(**fields)

    ledger.put, ledger.create = put, create
    jobs: dict[str, _Job] = {}
    ids: list[str] = []

    def check_synced() -> None:
        # Where memory and ledger are in sync, they agree record for record,
        # so a resident record is never non-terminal while the ledger is.
        for job_id, job in jobs.items():
            disk, resident = ledger.get(job_id), table.record(job_id)
            if job.synced:
                assert disk == resident
                assert resident.is_terminal() or not disk.is_terminal()

    # Every example starts with one clean submission, so moves have a job.
    for kind, slot, fail, store_hit in [("submit", 0, False, False), *steps]:
        check_synced()
        inject[0] = fail
        if kind == "submit":
            try:
                record = await table.create(label="x", algorithm="TP", l=2)
            except OSError:
                assert fail
                continue
            assert not fail and table.record(record.id) == record
            ids.append(record.id)
            jobs[record.id] = _Job(record)
            traces.begin(record.id, "")
            traces.mark(record.id, "queued")
            continue
        if not ids:
            continue
        job_id = ids[slot % len(ids)]
        job = jobs[job_id]
        if kind == "oob-cancel":
            try:
                record = JobLedger(workspace.jobs_path).cancel(job_id)
            except JobStateError:
                continue
            job.history.append(record)
            job.disk_cancelled = True
            job.synced = False
            continue

        status = MOVES[kind]
        before_counts, before_spans = _counters(registry), _spans(traces, job_id)
        tries = len(appended)
        attempts = job.attempts + (status == "running")
        if kind == "close":
            moved = await table.cancel(job_id, error="server shut down")
        else:
            moved = await table.transition(
                job_id,
                status,
                result=_payload(store_hit) if status == "done" else None,
                error="boom" if status in ("retrying", "failed") else "",
                attempts=attempts,
            )
        counts, spans = _counters(registry), _spans(traces, job_id)
        new_spans = spans[len(before_spans):]
        assert spans[: len(before_spans)] == before_spans

        if not can_transition(job.status, status):
            # Refused: no append, no counter, no span, memory unchanged.
            assert moved is None
            assert len(appended) == tries
            assert counts == before_counts and new_spans == []
            assert table.record(job_id).status == job.status
            continue

        # Accepted: exactly one append attempt, of the full next record.
        assert len(appended) == tries + 1
        assert appended[-1].status == status and appended[-1].id == job_id
        expected = dict(before_counts)
        if not fail and job.disk_cancelled:
            # Another writer's terminal record wins: adopted, counted once
            # under its own state; the move's effects are skipped.
            assert moved.status == "cancelled"
            assert table.record(job_id) == ledger.get(job_id) == job.history[-1]
            assert table.result(job_id) is None
            expected["cancelled"] += 1
            assert counts == expected and new_spans == []
            job.status, job.synced = "cancelled", True
            continue
        assert moved is not None and moved.status == status
        if status in ("done", "failed", "cancelled"):
            expected[status] += 1
        if status == "done" and store_hit:
            expected["store_hits"] += 1
        assert counts == expected
        lifecycle = {
            "running": ["queue-wait"],
            "retrying": [f"attempt-{max(attempts, 1)}"] if job.ran else [],
            "done": ([f"attempt-{max(attempts, 1)}"] if job.ran else []) + ["publish"],
            "failed": ([f"attempt-{max(attempts, 1)}"] if job.ran else []) + ["publish"],
            "cancelled": [],
        }[status]
        assert new_spans == lifecycle
        job.status = status
        job.attempts = attempts
        job.ran = job.ran or status == "running"
        if fail:
            # Memory stays ahead of the ledger.
            assert table.record(job_id).status == status
            assert ledger.get(job_id) == job.history[-1]
            job.synced = False
        else:
            # The ledger caught up with the full resident record.
            job.history.append(table.record(job_id))
            assert ledger.get(job_id) == table.record(job_id)
            job.synced = True

    check_synced()
    for job_id, job in jobs.items():
        # Appends for one job reach the ledger in transition order.
        assert ledger.history(job_id) == job.history


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(steps=_steps)
def test_table_against_a_real_ledger(tmp_path, steps):
    asyncio.run(_drive(tmp_path / f"example-{next(_examples)}", steps))


def test_concurrent_moves_append_in_move_order(tmp_path):
    """Moves flip memory before awaiting anything, in call order, and their
    appends reach the ledger in that order even while they overlap."""
    chain = [
        ("running", {"attempts": 1}),
        ("retrying", {"attempts": 1, "error": "boom"}),
        ("running", {"attempts": 2}),
        ("retrying", {"attempts": 2, "error": "boom"}),
        ("running", {"attempts": 3}),
        ("cancelled", {}),
    ]

    async def scenario(root):
        workspace = Workspace(root)
        table = JobTable(
            JobLedger(workspace.jobs_path), workspace, MetricsRegistry(),
            TraceStore(), capacity=8,
        )
        record = await table.create(label="x", algorithm="TP", l=2)
        real_put, calls = table.ledger.put, []

        def slow_first_put(record):
            calls.append(record.status)
            if len(calls) == 1:
                time.sleep(0.02)  # later appends must still wait their turn
            return real_put(record)

        table.ledger.put = slow_first_put
        first = asyncio.ensure_future(table.transition(record.id, "running", attempts=1))
        await asyncio.sleep(0)  # the move runs up to its first await
        assert table.record(record.id).status == "running"
        rest = asyncio.gather(
            *(table.transition(record.id, status, **kw) for status, kw in chain[1:])
        )
        moved = [await first, *(await rest)]
        assert [r.status for r in moved] == [status for status, _ in chain]
        history = [r.status for r in table.ledger.history(record.id)]
        assert history == ["queued"] + [status for status, _ in chain]
        assert table.record(record.id) == table.ledger.get(record.id)

    for index in range(10):
        asyncio.run(scenario(tmp_path / f"run-{index}"))


def test_status_reads_wait_for_flipped_moves(tmp_path):
    """Memory flips first, but what API readers see never runs ahead of
    the ledger: ``settled`` waits until the flipped move is appended."""

    async def scenario():
        workspace = Workspace(tmp_path / "ws")
        table = JobTable(
            JobLedger(workspace.jobs_path), workspace, MetricsRegistry(),
            TraceStore(), capacity=8,
        )
        record = await table.create(label="x", algorithm="TP", l=2)
        release, real_put = threading.Event(), table.ledger.put

        def held_put(record):
            release.wait(10)
            return real_put(record)

        table.ledger.put = held_put
        move = asyncio.ensure_future(table.transition(record.id, "running", attempts=1))
        await asyncio.sleep(0)
        assert table.record(record.id).status == "running"
        read = asyncio.ensure_future(table.settled(record.id))
        await asyncio.sleep(0.05)
        assert not read.done()
        release.set()
        assert (await read).status == "running"
        assert table.ledger.get(record.id).status == "running"
        assert (await move).status == "running"

    asyncio.run(scenario())
