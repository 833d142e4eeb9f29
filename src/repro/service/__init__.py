"""The job service layer: persistence, planning and streaming over the engine.

``repro.service`` sits on top of :mod:`repro.engine` and provides what a
long-lived deployment needs beyond a single in-process run:

* :mod:`repro.service.store` — the persistent :class:`RunStore` (one
  memory-mapped group-form directory per record under a workspace
  directory) that the engine's result cache reads through, so repeated
  CLI invocations and figure sweeps reuse results **across processes**;
* :mod:`repro.service.planner` — the cost-based :class:`ExecutionPlanner`
  that picks shards / workers from table statistics, calibrated
  against the committed ``BENCH_fig6.json`` baseline (and the large-``n``
  ``BENCH_scale.json`` trajectory when present);
* :mod:`repro.service.benchscale` — the ``BENCH_scale.json`` driver: the
  memory-mapped engine path timed at 10^5..10^7 rows with per-stage
  attribution (``ldiversity bench``);
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
from repro.service.benchscale import (
    BenchScaleConfig,
    run_bench_scale,
    write_bench_scale,
)
from repro.service.planner import (
    ExecutionDecision,
    ExecutionPlanner,
    PlannerCalibration,
    default_planner,
    load_bench_calibration,
    load_scale_rates,
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
    "BenchScaleConfig",
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
    "load_bench_calibration",
    "load_scale_rates",
    "run_bench_scale",
    "stream_anonymize",
    "write_bench_scale",
    "verify_csv_l_diverse",
    "verify_csv_satisfies",
]
