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
  loads the plan's :class:`~repro.engine.sources.DataSource` (optionally in
  bounded chunks), runs, verifies and computes the requested metrics;
* a sharded run splits the table into spec-eligible QI-prefix shards
  (:func:`~repro.engine.sharding.qi_prefix_shards`), anonymizes them
  sequentially or on a process pool, merges the published shard tables and
  verifies that the merged table still satisfies the spec — this is the
  out-of-core / large-``n`` execution path;
* plan dimensions left unset (``shards``/``workers`` of ``None``) are
  resolved by the cost-based
  :class:`~repro.service.planner.ExecutionPlanner` from the loaded table's
  statistics, replacing hand-tuned per-invocation defaults;
* results are memoized in a :class:`~repro.engine.cache.ResultCache` keyed
  by ``(fingerprint, algorithm, l, shards, seed, privacy)``; when
  the cache is backed by a persistent :class:`~repro.service.store.RunStore`,
  repeated runs are served across processes and the report says which tier
  answered.

Every stage is timed separately (load / anonymize / metrics) so regressions
can be attributed to the right layer.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import profiling
from repro.dataset.generalized import GeneralizedTable
from repro.dataset.table import Table
from repro.engine import algorithms as _builtin_algorithms  # noqa: F401 - registers entries
from repro.engine import metrics as _builtin_metrics  # noqa: F401 - registers entries
from repro.engine.cache import CachedRun, ResultCache, default_cache
from repro.engine.registry import (
    AlgorithmOutput,
    AlgorithmRegistry,
    MetricRegistry,
    algorithm_registry,
    metric_registry,
)
from repro.engine.sharding import merge_shard_outputs, qi_prefix_shards
from repro.engine.sources import DataSource, TableSource, concat_tables
from repro.errors import IneligibleTableError, VerificationError
from repro.privacy.spec import (
    PrivacySpec,
    enforce_spec,
    privacy_registry,
    resolve_privacy,
)

if TYPE_CHECKING:  # pragma: no cover - layering: service imports engine
    from repro.service.planner import ExecutionDecision, ExecutionPlanner
    from repro.service.store import RunStore

__all__ = ["Engine", "RunPlan", "RunReport", "StageTimings", "run_with_spec"]


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock seconds of the three pipeline stages."""

    load_seconds: float = 0.0
    anonymize_seconds: float = 0.0
    metrics_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.anonymize_seconds + self.metrics_seconds


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
    #: When set, load the source through bounded chunks of this many rows.
    chunk_rows: int | None = None
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
    timings: StageTimings
    #: Phase in which TP terminated; for sharded runs, the deepest phase any
    #: shard reached.
    phase_reached: int | None = None
    #: Metric name -> value, for the metrics requested by the plan.
    metric_values: dict[str, float] = field(default_factory=dict)
    #: Whether the anonymization was replayed from a cache tier at all.
    cache_hit: bool = False
    #: Whether the hit came from the *persistent* store tier (cross-process).
    store_hit: bool = False
    #: Snapshot of the engine cache's hit/miss counters after this run.
    cache_stats: dict[str, int] = field(default_factory=dict)
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
    #: Per-stage wall-clock seconds (``load`` / ``encode`` / ``state-init`` /
    #: ``phase1``..``phase3`` / ``publish`` / ``merge`` / ``metrics``) when
    #: ``REPRO_PROFILE`` is set; ``None`` otherwise.
    profile: dict[str, float] | None = None
    #: Trace id propagated from :attr:`RunPlan.request_id`.
    request_id: str = ""


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


def _run_shard(job: tuple[str, Table, PrivacySpec]) -> AlgorithmOutput:
    """Process-pool entry point: anonymize one shard."""
    name, shard, spec = job
    return run_with_spec(algorithm_registry.get(name).runner, shard, spec)


class Engine:
    """Executes :class:`RunPlan`\\ s against the algorithm/metric registries."""

    def __init__(
        self,
        algorithms: AlgorithmRegistry | None = None,
        metrics: MetricRegistry | None = None,
        cache: ResultCache | None = None,
        planner: "ExecutionPlanner | None" = None,
        store: "RunStore | None" = None,
    ) -> None:
        self.algorithms = algorithms if algorithms is not None else algorithm_registry
        self.metrics = metrics if metrics is not None else metric_registry
        if cache is None:
            cache = ResultCache(store=store) if store is not None else default_cache()
        elif store is not None and cache.store is not store:
            # Attaching the store to a caller-owned cache (possibly the
            # process-global default) would be a lasting side effect the
            # caller never asked for; make the conflict explicit instead.
            raise ValueError(
                "pass either cache= or store=, or a cache already backed by that store"
            )
        self.cache = cache
        if planner is None:
            from repro.service.planner import default_planner

            planner = default_planner()
        self.planner = planner

    # ------------------------------------------------------------------- runs

    def run(self, plan: RunPlan) -> RunReport:
        """Execute one plan: load, resolve, anonymize (possibly sharded), verify."""
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

        if profiling.enabled():
            profiling.reset()
        started = time.perf_counter()
        with profiling.profile_stage("load"):
            table = self._load(plan)
        load_seconds = time.perf_counter() - started

        decision = self.planner.decide(
            info,
            n=len(table),
            d=table.dimension,
            l=plan.l,
            shards=plan.shards,
            workers=plan.workers,
            privacy=spec,
        )

        output, anonymize_seconds, tier, shard_sizes, merges = self._anonymize(
            plan, info.name, table, decision, cacheable=info.deterministic,
            spec=spec,
        )

        started = time.perf_counter()
        verified = False
        with profiling.profile_stage("metrics"):
            if plan.verify:
                if not spec.check_generalized(output.generalized):
                    raise VerificationError(
                        f"published table violates {spec.describe()}"
                    )
                verified = True
            metric_values = {
                name: self.metrics.compute(name, table, output.generalized)
                for name in plan.metrics
            }
        metrics_seconds = time.perf_counter() - started

        return RunReport(
            plan=plan,
            label=plan.source.label,
            n=len(table),
            d=table.dimension,
            generalized=output.generalized,
            timings=StageTimings(load_seconds, anonymize_seconds, metrics_seconds),
            phase_reached=output.phase_reached,
            metric_values=metric_values,
            cache_hit=tier is not None,
            store_hit=tier == "store",
            cache_stats=self.cache.stats(),
            shard_sizes=shard_sizes,
            verified=verified,
            decision=decision,
            privacy=spec,
            enforcement_merges=merges,
            profile=profiling.snapshot() if profiling.enabled() else None,
            request_id=plan.request_id,
        )

    def run_table(self, table: Table, algorithm: str, l: int, **plan_fields) -> RunReport:
        """Convenience wrapper: run directly on an in-memory table."""
        plan = RunPlan(source=TableSource(table), algorithm=algorithm, l=l, **plan_fields)
        return self.run(plan)

    # ---------------------------------------------------------------- stages

    @staticmethod
    def _load(plan: RunPlan) -> Table:
        if plan.chunk_rows is not None:
            return concat_tables(list(plan.source.iter_chunks(plan.chunk_rows)))
        return plan.source.load()

    def _anonymize(
        self,
        plan: RunPlan,
        name: str,
        table: Table,
        decision: "ExecutionDecision",
        cacheable: bool,
        spec: PrivacySpec,
    ) -> tuple[AlgorithmOutput, float, str | None, tuple[int, ...], int]:
        use_cache = plan.use_cache and cacheable
        key = None
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
            cached, tier = self.cache.lookup(key, table)
            if cached is not None:
                # Cached entries were enforced before being stored.
                return (
                    cached.output, cached.anonymize_seconds, tier,
                    cached.shard_sizes, cached.enforcement_merges,
                )

        started = time.perf_counter()
        with profiling.maybe_cprofile(f"anonymize {name} n={len(table)}"):
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
            enforced, merges = enforce_spec(table, output.generalized, spec)
            if merges:
                output = AlgorithmOutput(enforced, phase_reached=output.phase_reached)
        anonymize_seconds = time.perf_counter() - started

        if use_cache and key is not None:
            self.cache.put(
                key,
                CachedRun(
                    output=output,
                    anonymize_seconds=anonymize_seconds,
                    shard_sizes=shard_sizes,
                    enforcement_merges=merges,
                ),
            )
        return output, anonymize_seconds, None, shard_sizes, merges

    def _run_sharded(
        self,
        plan: RunPlan,
        name: str,
        table: Table,
        decision: "ExecutionDecision",
        spec: PrivacySpec,
    ) -> tuple[AlgorithmOutput, tuple[int, ...]]:
        shard_rows = qi_prefix_shards(table, decision.shards, spec)
        shard_tables = [table.subset(rows) for rows in shard_rows]
        jobs = [(name, shard, spec) for shard in shard_tables]
        if decision.workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=min(decision.workers, len(jobs))) as pool:
                outputs = list(pool.map(_run_shard, jobs))
        else:
            outputs = [_run_shard(job) for job in jobs]
        # Structural merge only; verification of the merged table against the
        # spec happens in run()'s verify stage (plan.verify), after the
        # enforcement pass has had its chance to repair across shards.
        with profiling.profile_stage("merge"):
            merged = merge_shard_outputs(table, shard_rows, outputs, spec, verify=False)
        phases = [output.phase_reached for output in outputs if output.phase_reached]
        return (
            AlgorithmOutput(merged, phase_reached=max(phases) if phases else None),
            tuple(len(rows) for rows in shard_rows),
        )
