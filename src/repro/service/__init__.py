"""The job service layer: persistence, planning and streaming over the engine.

``repro.service`` sits on top of :mod:`repro.engine` and provides what a
long-lived deployment needs beyond a single in-process run:

* :mod:`repro.service.store` — the persistent :class:`RunStore` (one
  memory-mapped group-form directory per record under a workspace
  directory), the engine's one result cache, so repeated CLI invocations
  and served jobs reuse results **across processes**;
* :mod:`repro.service.planner` — the cost-based :class:`ExecutionPlanner`
  that picks shards / workers from table statistics and built-in
  per-algorithm rates;
* :mod:`repro.service.streaming` — CSV-to-CSV anonymization in bounded
  memory (scan, spill to QI-prefix shards, anonymize shard-by-shard into a
  :class:`~repro.engine.sinks.CsvSink`);
* :mod:`repro.service.jobs` — the :class:`JobService` behind
  ``ldiversity jobs submit/list/show``;
* :mod:`repro.service.workspace` — where all of the above keeps its state.

Quickstart::

    from repro.engine import CsvSource, RunPlan
    from repro.service import JobService, Workspace

    service = JobService(Workspace("/tmp/ws"))
    record, report = service.submit(
        RunPlan(source=CsvSource("big.csv", ("Age", "Zip"), "Disease"), l=4)
    )
    assert record.status == "done"   # planner chose shards/workers; store filled
"""

from repro.service.store import RunStore
from repro.service.planner import (
    ExecutionDecision,
    ExecutionPlanner,
    PlannerCalibration,
    default_planner,
)
from repro.service.workspace import Workspace, default_workspace_root
from repro.service.streaming import (
    StreamReport,
    stream_anonymize,
    verify_csv_l_diverse,
    verify_csv_satisfies,
)
from repro.service.jobs import JobLedger, JobRecord, JobService, JobStateError

__all__ = [
    "ExecutionDecision",
    "ExecutionPlanner",
    "JobLedger",
    "JobRecord",
    "JobService",
    "JobStateError",
    "PlannerCalibration",
    "RunStore",
    "StreamReport",
    "Workspace",
    "default_planner",
    "default_workspace_root",
    "stream_anonymize",
    "verify_csv_l_diverse",
    "verify_csv_satisfies",
]
