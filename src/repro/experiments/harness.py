"""Common machinery for running anonymization algorithms over workloads.

Algorithms are resolved through the engine's
:data:`~repro.engine.registry.algorithm_registry` — :data:`ALGORITHMS` is a
live view over it, not a copy, so anything registered there is immediately
runnable here and the CLI's choices can never drift from the harness.

Independent ``(table, l, algorithm)`` runs can be fanned out across a
process pool with :func:`run_suite`'s ``workers=`` option: each worker times
its own run (so the recorded ``seconds`` stay comparable to sequential
execution) and ships back only the scalar :class:`RunRecord`; tables travel
to workers in their compact columnar form.  ``workers=None`` (the default)
asks the cost-based :class:`~repro.service.planner.ExecutionPlanner` to
size the pool from the calibrated run estimates — smoke-scale suites stay
sequential, heavy sweeps fan out to the machine's cores.

Runs are memoized in the engine's result cache (keyed by table fingerprint,
algorithm, ``l``, shard count and seed), so sweeps that
revisit a combination — e.g. the stars-vs-l and time-vs-l figures, which
share every run — replay the stored output and its original timing instead
of recomputing.  When the cache is backed by a persistent
:class:`~repro.service.store.RunStore`, the replay works across processes;
:func:`cache_summary` renders the per-tier hit statistics for report
footers.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from repro.dataset.table import Table
from repro.engine.cache import CachedRun, ResultCache, default_cache
from repro.engine.core import RunReport
from repro.engine.registry import AlgorithmOutput, algorithm_registry
from repro.metrics.kl import kl_divergence
from repro.text import format_fixed_width

__all__ = [
    "ALGORITHMS",
    "AlgorithmOutput",
    "RunRecord",
    "average_by",
    "cache_summary",
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

    ``seconds`` is the anonymization stage only (what the figures plot and
    what ``BENCH_fig6.json`` baselines); loading and metric evaluation are
    attributed separately so a regression in the BENCH JSON points at the
    stage that caused it.
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
    #: Wall-clock seconds spent loading/building the table, when the caller
    #: routed the load through the engine (0.0 for pre-built tables).
    load_seconds: float = 0.0
    #: Wall-clock seconds spent computing the record's metrics.
    metrics_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """End-to-end seconds across the load/anonymize/metrics stages."""
        return self.load_seconds + self.seconds + self.metrics_seconds


def _measure(
    name: str,
    table: Table,
    l: int,
    dataset: str,
    with_kl: bool,
    output: AlgorithmOutput,
    anonymize_seconds: float,
    load_seconds: float = 0.0,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from a finished run, timing the metrics."""
    started = time.perf_counter()
    generalized = output.generalized
    record = RunRecord(
        algorithm=name,
        dataset=dataset,
        l=l,
        d=table.dimension,
        n=len(table),
        stars=generalized.star_count(),
        suppressed_tuples=generalized.suppressed_tuple_count(),
        seconds=anonymize_seconds,
        groups=len(generalized.groups()),
        phase_reached=output.phase_reached,
        load_seconds=load_seconds,
    )
    kl = kl_divergence(table, generalized) if with_kl else None
    metrics_seconds = time.perf_counter() - started
    return replace(record, kl=kl, metrics_seconds=metrics_seconds)


def run_algorithm(
    name: str,
    table: Table,
    l: int,
    dataset: str = "",
    with_kl: bool = False,
    cache: ResultCache | None = None,
) -> RunRecord:
    """Run one algorithm on one table and collect the standard metrics.

    ``cache`` defaults to the engine's process-global result cache; pass an
    isolated :class:`~repro.engine.cache.ResultCache` to control reuse, or
    consult :func:`repro.engine.cache.default_cache` for hit statistics.
    """
    info = algorithm_registry.get(name)
    cache = cache if cache is not None else default_cache()
    key = None
    if info.deterministic:
        key = ResultCache.key(table.fingerprint(), name, l)
        cached = cache.get(key, table)
        if cached is not None:
            return _measure(
                name, table, l, dataset, with_kl, cached.output, cached.anonymize_seconds
            )
    started = time.perf_counter()
    output = info.runner(table, l)
    elapsed = time.perf_counter() - started
    if key is not None:
        cache.put(key, CachedRun(output=output, anonymize_seconds=elapsed))
    return _measure(name, table, l, dataset, with_kl, output, elapsed)


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
        seconds=report.timings.anonymize_seconds,
        groups=len(generalized.groups()),
        phase_reached=report.phase_reached,
        kl=report.metric_values.get("kl"),
        load_seconds=report.timings.load_seconds,
        metrics_seconds=report.timings.metrics_seconds,
    )


def _run_job(
    job: tuple[str, Table, int, str, bool],
) -> tuple[RunRecord, CachedRun | None]:
    """Process-pool entry point: one (algorithm, table, l) measurement.

    Besides the scalar record, the run's output travels back so the parent
    can memoize it; ``None`` when the algorithm is not deterministic.
    """
    name, table, l, label, with_kl = job
    info = algorithm_registry.get(name)
    started = time.perf_counter()
    output = info.runner(table, l)
    elapsed = time.perf_counter() - started
    record = _measure(name, table, l, label, with_kl, output, elapsed)
    cached = CachedRun(output=output, anonymize_seconds=elapsed) if info.deterministic else None
    return record, cached


def run_suite(
    tables: Sequence[tuple[str, Table]],
    l: int,
    algorithms: Sequence[str],
    with_kl: bool = False,
    workers: int | None = None,
    cache: ResultCache | None = None,
) -> list[RunRecord]:
    """Run several algorithms over several labelled tables.

    Parameters
    ----------
    workers:
        When greater than 1, the independent runs are distributed over a
        process pool of that many workers.  Records come back in the same
        order as sequential execution (tables outer, algorithms inner);
        timings are taken inside each worker.  ``None`` (the default) lets
        the cost-based planner size the pool: sequential when the calibrated
        estimate says pool startup would dominate, full fan-out otherwise.
    cache:
        Result cache consulted before running (defaults to the engine's
        process-global cache).  On the parallel path the cache lives in the
        parent: hits are answered locally, only misses are dispatched to the
        pool, and their outputs are stored when the workers return.
    """
    cache = cache if cache is not None else default_cache()
    jobs = [
        (name, table, l, label, with_kl)
        for label, table in tables
        for name in algorithms
    ]
    if workers is None:
        workers = _auto_workers(jobs)
    if workers > 1 and len(jobs) > 1:
        return _run_jobs_parallel(jobs, workers, cache)
    return [
        run_algorithm(name, table, l, dataset=label, with_kl=with_kl, cache=cache)
        for name, table, l, label, with_kl in jobs
    ]


def _auto_workers(jobs: list[tuple[str, Table, int, str, bool]]) -> int:
    """Planner-chosen pool width for a batch of independent runs."""
    from repro.service.planner import default_planner

    planner = default_planner()
    estimated = sum(
        planner.estimate_run_seconds(name, len(table))
        for name, table, _l, _label, _kl in jobs
    )
    return planner.suite_workers(len(jobs), estimated)


def _run_jobs_parallel(
    jobs: list[tuple[str, Table, int, str, bool]],
    workers: int,
    cache: ResultCache,
) -> list[RunRecord]:
    """Answer cache hits in the parent, dispatch only the misses to the pool.

    Workers ship their outputs back alongside the scalar records, and the
    parent stores them, so a later sweep over the same combinations (or a
    duplicate job inside this one) hits the cache even though the runs
    happened in other processes.
    """
    records: list[RunRecord | None] = [None] * len(jobs)
    keys: dict[int, tuple] = {}
    misses: list[int] = []
    for position, (name, table, l, label, with_kl) in enumerate(jobs):
        info = algorithm_registry.get(name)
        if not info.deterministic:
            misses.append(position)
            continue
        key = ResultCache.key(table.fingerprint(), name, l)
        keys[position] = key
        cached = cache.get(key, table)
        if cached is None:
            misses.append(position)
        else:
            records[position] = _measure(
                name, table, l, label, with_kl, cached.output, cached.anonymize_seconds
            )
    if misses:
        with ProcessPoolExecutor(max_workers=min(workers, len(misses))) as pool:
            for position, (record, cached) in zip(
                misses, pool.map(_run_job, [jobs[i] for i in misses])
            ):
                records[position] = record
                if cached is not None and position in keys:
                    cache.put(keys[position], cached)
    return [record for record in records if record is not None]


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


def cache_summary(cache: ResultCache | None = None) -> str:
    """One-line per-tier hit summary for harness reports and CLI footers."""
    cache = cache if cache is not None else default_cache()
    stats = cache.stats()
    line = (
        f"run cache: {stats['memory_hits']} memory hits, "
        f"{stats['store_hits']} store hits, {stats['misses']} misses "
        f"({stats['entries']} entries retained"
    )
    if "store_entries" in stats:
        line += f", {stats['store_entries']} persisted"
    return line + ")"


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
