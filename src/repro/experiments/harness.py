"""Common machinery for running anonymization algorithms over workloads.

Algorithms are resolved through the engine's
:data:`~repro.engine.registry.algorithm_registry` — :data:`ALGORITHMS` is a
live view over it, not a copy, so anything registered there is immediately
runnable here and the CLI's choices can never drift from the harness.

Every run goes through :meth:`Engine.run <repro.engine.core.Engine.run>`
unsharded and sequentially, so figure runs are timed by the engine's span
tree and verified against frequency l-diversity like any other run.  Runs
are uncached unless the caller passes a
:class:`~repro.engine.cache.ResultCache` backed by a
:class:`~repro.service.store.RunStore`; a store hit replays the stored
output and its original timing.
"""

from __future__ import annotations

import statistics
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.dataset.table import Table
from repro.engine.cache import ResultCache
from repro.engine.core import Engine, RunPlan, RunReport
from repro.engine.registry import AlgorithmOutput, algorithm_registry
from repro.engine.sources import TableSource
from repro.text import format_fixed_width

__all__ = [
    "ALGORITHMS",
    "AlgorithmOutput",
    "RunRecord",
    "average_by",
    "format_records",
    "record_from_report",
    "run_algorithm",
    "run_suite",
]


#: Live ``name -> runner`` view over the engine's algorithm registry (the
#: registrations themselves live in :mod:`repro.engine.algorithms`).
ALGORITHMS = algorithm_registry.runners()


@dataclass(frozen=True)
class RunRecord:
    """One (algorithm, table, l) measurement.

    ``seconds`` is the anonymization stage only (what the time figures
    plot); loading and metric evaluation are attributed separately.
    """

    algorithm: str
    dataset: str
    l: int
    d: int
    n: int
    stars: int
    suppressed_tuples: int
    #: Anonymization wall-clock seconds (excludes loading and metrics).
    seconds: float
    groups: int
    phase_reached: int | None = None
    kl: float | None = None
    #: Wall-clock seconds of the engine's load stage (near zero for an
    #: in-memory table).
    load_seconds: float = 0.0
    #: Wall-clock seconds spent verifying the output and computing metrics.
    metrics_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end seconds across the load/anonymize/metrics stages."""
        return self.load_seconds + self.seconds + self.metrics_seconds


def run_algorithm(
    name: str,
    table: Table,
    l: int,
    dataset: str = "",
    with_kl: bool = False,
    cache: ResultCache | None = None,
) -> RunRecord:
    """Run one algorithm on one table through :meth:`Engine.run
    <repro.engine.core.Engine.run>` and collect the standard metrics.

    The run is unsharded and sequential and verified against frequency
    l-diversity.  It is uncached unless ``cache`` is backed by a run store.
    """
    plan = RunPlan(
        TableSource(table),
        name,
        l,
        shards=1,
        workers=1,
        metrics=("kl",) if with_kl else (),
    )
    return record_from_report(Engine(cache=cache).run(plan), dataset)


def record_from_report(report: RunReport, dataset: str | None = None) -> RunRecord:
    """Project an engine :class:`~repro.engine.core.RunReport` onto a record."""
    generalized = report.generalized
    return RunRecord(
        algorithm=report.plan.algorithm,
        dataset=dataset if dataset is not None else report.label,
        l=report.plan.l,
        d=report.d,
        n=report.n,
        stars=generalized.star_count(),
        suppressed_tuples=generalized.suppressed_tuple_count(),
        seconds=report.anonymize_seconds,
        groups=len(generalized.groups()),
        phase_reached=report.phase_reached,
        kl=report.metric_values.get("kl"),
        load_seconds=report.trace.total("load"),
        metrics_seconds=report.trace.total("verify") + report.trace.total("metrics"),
    )


def run_suite(
    tables: Sequence[tuple[str, Table]],
    l: int,
    algorithms: Sequence[str],
    with_kl: bool = False,
    cache: ResultCache | None = None,
) -> list[RunRecord]:
    """Run several algorithms over several labelled tables, tables outer and
    algorithms inner, each through :func:`run_algorithm`."""
    return [
        run_algorithm(name, table, l, dataset=label, with_kl=with_kl, cache=cache)
        for label, table in tables
        for name in algorithms
    ]


def average_by(
    records: Iterable[RunRecord],
    metric: str,
    key: Callable[[RunRecord], tuple] = lambda record: (record.algorithm,),
) -> dict[tuple, float]:
    """Average a metric of :class:`RunRecord` grouped by an arbitrary key."""
    buckets: dict[tuple, list[float]] = {}
    for record in records:
        value = getattr(record, metric)
        if value is None:
            continue
        buckets.setdefault(key(record), []).append(float(value))
    return {group: statistics.fmean(values) for group, values in buckets.items()}


def format_records(records: Sequence[RunRecord]) -> str:
    """Render run records as a fixed-width text table (for CLI / examples)."""
    headers = ["algorithm", "dataset", "l", "d", "n", "stars", "suppressed", "groups", "seconds", "kl"]
    rows = [
        [
            record.algorithm,
            record.dataset,
            str(record.l),
            str(record.d),
            str(record.n),
            str(record.stars),
            str(record.suppressed_tuples),
            str(record.groups),
            f"{record.seconds:.3f}",
            "" if record.kl is None else f"{record.kl:.4f}",
        ]
        for record in records
    ]
    return format_fixed_width(headers, rows)
