"""The execution engine: plans, sharded runs, caching, verification.

:class:`Engine` is the one entry point through which the CLI, the experiment
harness, the job service and the scripts run anonymization:

* every plan targets a privacy model: :attr:`RunPlan.privacy` is a
  :class:`~repro.privacy.spec.PrivacySpec` (``None`` keeps the historical
  sugar — ``l=`` means frequency l-diversity); the engine resolves the spec
  once, runs the core algorithms at the spec's derived frequency parameter,
  applies the post-anonymization enforcement pass
  (:func:`~repro.privacy.spec.enforce_spec`) for the specs that frequency
  guarantee does not already imply — for implied specs, the default path
  included, the pass is skipped so a violating group surfaces as a
  verification error instead of being repaired away — and verifies the
  published table against the spec;
* an unsharded :meth:`Engine.run` resolves the algorithm in the registry,
  loads the plan's :class:`~repro.engine.sources.DataSource`, runs,
  verifies and computes the requested metrics;
* a sharded run splits the table into spec-eligible QI-prefix shards
  (:func:`~repro.engine.sharding.qi_prefix_shards`), anonymizes them
  sequentially or on a process pool, merges the published shard tables and
  verifies that the merged table still satisfies the spec — this is the
  out-of-core / large-``n`` execution path;
* plan dimensions left unset (``shards``/``workers`` of ``None``) are
  resolved by the cost-based
  :class:`~repro.service.planner.ExecutionPlanner` from the loaded table's
  statistics, replacing hand-tuned per-invocation defaults;
* results are memoized only through the persistent
  :class:`~repro.service.store.RunStore` behind the engine's
  :class:`~repro.engine.cache.ResultCache`, keyed by ``(fingerprint,
  algorithm, l, shards, seed, privacy)``; repeated runs are then served
  across processes and the report says whether the store answered.  An
  engine given no store caches nothing and never hashes its table.

Every run records one measured span tree (:mod:`repro.obs.trace`), from
``run`` down to the algorithms' own stages, so each second is charged to
the layer that spent it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dataset.generalized import GeneralizedTable
from repro.dataset.table import Table
from repro.engine import algorithms as _builtin_algorithms  # noqa: F401 - registers entries
from repro.engine import metrics as _builtin_metrics  # noqa: F401 - registers entries
from repro.engine.cache import CachedRun, ResultCache
from repro.engine.registry import (
    AlgorithmOutput,
    AlgorithmRegistry,
    MetricRegistry,
    algorithm_registry,
    metric_registry,
)
from repro.engine.sharding import merge_shard_outputs, qi_prefix_shards
from repro.engine.sources import DataSource, TableSource
from repro.errors import IneligibleTableError, VerificationError
from repro.obs import trace
from repro.obs.trace import Span
from repro.privacy.spec import (
    PrivacySpec,
    enforce_spec,
    privacy_registry,
    resolve_privacy,
)

if TYPE_CHECKING:  # pragma: no cover - layering: service imports engine
    from repro.service.planner import ExecutionDecision, ExecutionPlanner

__all__ = ["Engine", "RunPlan", "RunReport", "run_with_spec"]


@dataclass(frozen=True)
class RunPlan:
    """A declarative description of one anonymization run.

    ``shards`` and ``workers`` default to ``None``, meaning *let the
    cost-based planner decide from the loaded table's statistics*; pass
    explicit integers to pin them.
    """

    source: DataSource
    algorithm: str = "TP+"
    #: Frequency-diversity sugar: when :attr:`privacy` is unset, the plan
    #: targets ``FrequencyLDiversity(l)`` — the historical contract.
    l: int = 2
    #: The privacy model to enforce (a :class:`~repro.privacy.spec.PrivacySpec`
    #: or its dict encoding); ``None`` resolves to ``FrequencyLDiversity(l)``.
    #: When set, it overrides ``l``.
    privacy: "PrivacySpec | dict | None" = None
    #: Number of QI-prefix shards; 1 = unsharded, None = planner-chosen.  The
    #: effective count may be lower when the eligibility repair pass merges.
    shards: int | None = None
    #: Process-pool width for sharded runs; 1 = sequential, None = planner.
    workers: int | None = None
    #: RNG seed recorded in the cache key (reserved for randomized algorithms;
    #: every built-in is deterministic and ignores it).
    seed: int = 0
    #: Metric names (from the metric registry) to evaluate on the output.
    metrics: tuple[str, ...] = ()
    #: Whether to consult/fill the result cache.
    use_cache: bool = True
    #: Whether to verify the published table against the privacy spec.
    verify: bool = True
    #: Trace id of the request that scheduled this run (empty for direct
    #: CLI/library use).  Carried into the report; never part of cache keys.
    request_id: str = ""

    def resolved_privacy(self) -> PrivacySpec:
        """The concrete privacy spec this plan targets (``l`` sugar resolved)."""
        return resolve_privacy(self.privacy, self.l)


@dataclass(frozen=True)
class RunReport:
    """Everything one :meth:`Engine.run` produced."""

    plan: RunPlan
    label: str
    n: int
    d: int
    generalized: GeneralizedTable
    #: The run's measured span tree; its root, ``run``, spans the whole call.
    trace: Span
    #: Phase in which TP terminated; for sharded runs, the deepest phase any
    #: shard reached.
    phase_reached: int | None = None
    #: Metric name -> value, for the metrics requested by the plan.
    metric_values: dict[str, float] = field(default_factory=dict)
    #: Whether the anonymization was replayed from the persistent run store.
    store_hit: bool = False
    #: Row count of each executed shard (one entry, ``n``, when unsharded).
    shard_sizes: tuple[int, ...] = ()
    #: Whether the published table was verified against the privacy spec.
    verified: bool = False
    #: The planner's resolved configuration for this run.
    decision: "ExecutionDecision | None" = None
    #: The resolved privacy spec the run enforced and verified.
    privacy: "PrivacySpec | None" = None
    #: QI-group merges performed by the enforcement pass (0 whenever the
    #: algorithms' frequency guarantee already implied the spec).
    enforcement_merges: int = 0
    #: Trace id propagated from :attr:`RunPlan.request_id`.
    request_id: str = ""

    @property
    def seconds(self) -> float:
        """Measured wall-clock seconds of the whole run (the root span)."""
        return self.trace.seconds

    @property
    def anonymize_seconds(self) -> float:
        """Compute cost of the anonymization: measured on a miss, and on a
        store hit the cost of the miss that filled the record."""
        return self.trace.find("anonymize").attributes["compute_seconds"]


def run_with_spec(runner, table: Table, spec: PrivacySpec) -> AlgorithmOutput:
    """Run one algorithm on a table under a privacy spec.

    The core algorithms optimize frequency l-diversity; they run at the
    spec's derived frequency parameter.  SA-blind specs (k-anonymity)
    anonymize a surrogate table with an all-distinct sensitive column and
    the published table is rebuilt from the output partition against the
    original table — cells depend only on the QI values and the partition,
    so the rebuild restores the original schema and sensitive column
    without changing the generalization.
    """
    run_table = spec.prepare_table(table)
    output = runner(run_table, spec.anonymize_l())
    if run_table is not table:
        from repro.dataset.generalized import Partition

        partition = Partition.trusted(
            [list(rows) for rows in output.generalized.groups().values()], len(table)
        )
        output = AlgorithmOutput(
            GeneralizedTable.from_partition(table, partition),
            phase_reached=output.phase_reached,
        )
    return output


def _run_shard(
    job: tuple[int, str, Table, PrivacySpec, float],
) -> tuple[AlgorithmOutput, Span]:
    """Process-pool entry point: anonymize one shard, returning its subtree.

    The subtree starts at ``dispatched``; its first child, ``dispatch``, is
    the wait for a worker plus the shard's transfer to it.
    """
    index, name, shard, spec, dispatched = job
    with trace.record("shard", index=index, rows=len(shard)) as subtree:
        output = run_with_spec(algorithm_registry.get(name).runner, shard, spec)
    waited = max(subtree.start - dispatched, 0.0)
    subtree.children.insert(0, Span("dispatch", dispatched, waited, parent="shard"))
    subtree.start -= waited
    subtree.seconds += waited
    return output, subtree


class Engine:
    """Executes :class:`RunPlan`\\ s against the algorithm/metric registries."""

    def __init__(
        self,
        algorithms: AlgorithmRegistry | None = None,
        metrics: MetricRegistry | None = None,
        cache: ResultCache | None = None,
        planner: "ExecutionPlanner | None" = None,
    ) -> None:
        self.algorithms = algorithms if algorithms is not None else algorithm_registry
        self.metrics = metrics if metrics is not None else metric_registry
        self.cache = cache if cache is not None else ResultCache()
        if planner is None:
            from repro.service.planner import default_planner

            planner = default_planner()
        self.planner = planner

    # ------------------------------------------------------------------- runs

    def run(self, plan: RunPlan) -> RunReport:
        """Execute one plan: load, resolve, anonymize (possibly sharded), verify."""
        with trace.record("run", algorithm=plan.algorithm) as root:
            info = self.algorithms.get(plan.algorithm)  # fail before loading anything
            spec = plan.resolved_privacy()
            if not privacy_registry.get(spec.kind).enforceable:
                raise ValueError(
                    f"privacy model {spec.kind!r} is check-only and cannot be "
                    "requested as an anonymization target"
                )
            for metric_name in plan.metrics:
                self.metrics.get(metric_name)
            if plan.shards is not None and plan.shards > 1 and not info.supports_sharding:
                raise ValueError(
                    f"algorithm {info.name!r} does not support sharded execution"
                )

            with trace.span("load"):
                table = plan.source.load()
            with trace.span("plan"):
                decision = self.planner.decide(
                    info,
                    n=len(table),
                    d=table.dimension,
                    l=plan.l,
                    shards=plan.shards,
                    workers=plan.workers,
                    privacy=spec,
                )
            with trace.span("anonymize") as stage:
                output, store_hit, shard_sizes, merges, compute_seconds = self._anonymize(
                    plan, info.name, table, decision, cacheable=info.deterministic,
                    spec=spec,
                )
                stage.attributes.update(
                    tier="store" if store_hit else None, compute_seconds=compute_seconds
                )
            verified = False
            if plan.verify:
                with trace.span("verify"):
                    if not spec.check_generalized(output.generalized):
                        raise VerificationError(
                            f"published table violates {spec.describe()}"
                        )
                verified = True
            with trace.span("metrics"):
                metric_values = {
                    name: self.metrics.compute(name, table, output.generalized)
                    for name in plan.metrics
                }
            root.attributes["n"] = len(table)
            # Built inside the root so the root spans the whole call.
            return RunReport(
                plan=plan,
                label=plan.source.label,
                n=len(table),
                d=table.dimension,
                generalized=output.generalized,
                trace=root,
                phase_reached=output.phase_reached,
                metric_values=metric_values,
                store_hit=store_hit,
                shard_sizes=shard_sizes,
                verified=verified,
                decision=decision,
                privacy=spec,
                enforcement_merges=merges,
                request_id=plan.request_id,
            )

    def run_table(self, table: Table, algorithm: str, l: int, **plan_fields) -> RunReport:
        """Convenience wrapper: run directly on an in-memory table."""
        plan = RunPlan(source=TableSource(table), algorithm=algorithm, l=l, **plan_fields)
        return self.run(plan)

    # ---------------------------------------------------------------- stages

    def _anonymize(
        self,
        plan: RunPlan,
        name: str,
        table: Table,
        decision: "ExecutionDecision",
        cacheable: bool,
        spec: PrivacySpec,
    ) -> tuple[AlgorithmOutput, bool, tuple[int, ...], int, float]:
        """Returns the output, whether the run store answered, the shard
        sizes, the enforcement merges and the compute seconds."""
        # Without a store every lookup would miss, so a storeless engine
        # neither hashes the table nor opens cache spans.
        use_cache = plan.use_cache and cacheable and self.cache.store is not None
        if use_cache:
            # The key's l component is derived from the spec, not plan.l:
            # with an explicit spec, plan.l is only a display hint and
            # letting it vary (CLI vs HTTP defaults, client-chosen hints)
            # would fragment the cache for identical workloads.
            key = ResultCache.key(
                table.fingerprint(),
                name,
                spec.anonymize_l(),
                decision.shards,
                plan.seed,
                privacy=spec,
            )
            with trace.span("cache-lookup"):
                cached = self.cache.lookup(key, table)
            if cached is not None:
                # Cached entries were enforced before being stored.
                return (
                    cached.output, True, cached.shard_sizes,
                    cached.enforcement_merges, cached.anonymize_seconds,
                )

        started = time.perf_counter()
        if decision.shards > 1:
            output, shard_sizes = self._run_sharded(plan, name, table, decision, spec)
        else:
            if not spec.eligible(table.sa_counts(), len(table)):
                raise IneligibleTableError(
                    f"table is not eligible for {spec.describe()}; "
                    "no satisfying generalization exists"
                )
            output = run_with_spec(self.algorithms.get(name).runner, table, spec)
            shard_sizes = (len(table),)
        # Enforcement pass — only for specs the algorithms' frequency
        # guarantee does not already imply (recursive-cl with c <= 1).  For
        # implied specs (the default path included) a violating group can
        # only mean a broken algorithm or merge invariant, which must reach
        # the verify stage as an error, never be silently repaired away.
        merges = 0
        if not spec.implied_by_frequency():
            with trace.span("enforce"):
                enforced, merges = enforce_spec(table, output.generalized, spec)
            if merges:
                output = AlgorithmOutput(enforced, phase_reached=output.phase_reached)
        compute_seconds = time.perf_counter() - started

        if use_cache:
            with trace.span("cache-put"):
                self.cache.put(
                    key,
                    CachedRun(
                        output=output,
                        anonymize_seconds=compute_seconds,
                        shard_sizes=shard_sizes,
                        enforcement_merges=merges,
                    ),
                )
        return output, False, shard_sizes, merges, compute_seconds

    def _run_sharded(
        self,
        plan: RunPlan,
        name: str,
        table: Table,
        decision: "ExecutionDecision",
        spec: PrivacySpec,
    ) -> tuple[AlgorithmOutput, tuple[int, ...]]:
        with trace.span("split"):
            shard_rows = qi_prefix_shards(table, decision.shards, spec)
            jobs = [(i, name, table.subset(rows), spec) for i, rows in enumerate(shard_rows)]
        workers = min(decision.workers, len(jobs))
        # The only span whose children may overlap: shards run concurrently
        # on the pool, each returning the subtree it recorded.
        with trace.span("shards", fanout=True, workers=workers):
            if workers > 1:
                # Forking the workers happens on the first submit; starting
                # and joining the pool are the fan-out's own overhead.
                with trace.span("pool-start"):
                    pool = ProcessPoolExecutor(max_workers=workers)
                    futures = [pool.submit(_run_shard, (*job, trace.now())) for job in jobs]
                try:
                    results = [future.result() for future in futures]
                finally:
                    with trace.span("pool-stop"):
                        pool.shutdown()
            else:
                results = [_run_shard((*job, trace.now())) for job in jobs]
            for _, subtree in results:
                trace.graft(subtree)
        outputs = [output for output, _ in results]
        # Structural merge only; verification of the merged table against the
        # spec happens in run()'s verify stage (plan.verify), after the
        # enforcement pass has had its chance to repair across shards.
        with trace.span("merge"):
            merged = merge_shard_outputs(table, shard_rows, outputs, spec, verify=False)
        phases = [output.phase_reached for output in outputs if output.phase_reached]
        return (
            AlgorithmOutput(merged, phase_reached=max(phases) if phases else None),
            tuple(len(rows) for rows in shard_rows),
        )
