"""Pluggable anonymization engine.

The engine layer sits between the algorithm/metric implementations and their
consumers (CLI, experiment harness, scripts) and consists of:

* :mod:`repro.engine.registry` — decorator-based algorithm and metric
  registries with capability metadata; the single source of truth for what
  can run (``repro.engine.algorithms`` / ``repro.engine.metrics`` register
  the built-ins at import time);
* :mod:`repro.engine.sources` — dataset adapters unifying CSV files,
  synthetic generators and in-memory columnar tables behind one loader with
  schema inference and chunked reads;
* :mod:`repro.engine.columnstore` — zero-copy columnar storage: encoded
  tables persisted as memory-mappable ``.npy`` column buffers
  (:class:`ColumnStore`) plus a :class:`ColumnStoreSource` adapter, the
  physical layout behind ``--mmap`` runs and the scale benchmarks;
* :mod:`repro.engine.sharding` — QI-prefix sharding and shard-output
  merging for out-of-core / large-``n`` runs;
* :mod:`repro.engine.sinks` — incremental CSV export of published tables
  (:class:`CsvSink`), shared by the CLI and the streaming pipeline;
* :mod:`repro.engine.cache` — per-run result caching keyed by
  ``(fingerprint, algorithm, l, shards, seed, privacy)``, optionally
  read-through over the persistent :class:`~repro.service.store.RunStore`;
* :mod:`repro.engine.core` — the :class:`Engine` executor tying it together;
  plan dimensions left unset are resolved by the cost-based
  :class:`~repro.service.planner.ExecutionPlanner`, and every plan targets a
  :class:`~repro.privacy.spec.PrivacySpec` (``l=`` stays sugar for frequency
  l-diversity).

Quickstart::

    from repro.engine import Engine, RunPlan, SyntheticSource

    report = Engine().run(
        RunPlan(
            source=SyntheticSource("SAL", n=10_000, dimension=4),
            algorithm="TP+", l=4, shards=4, metrics=("stars", "kl"),
        )
    )
    assert report.verified
"""

from repro.engine.cache import CachedRun, ResultCache, default_cache
from repro.engine.columnstore import ColumnStore, ColumnStoreSource
from repro.engine.core import Engine, RunPlan, RunReport, StageTimings, run_with_spec
from repro.engine.registry import (
    AlgorithmInfo,
    AlgorithmOutput,
    AlgorithmRegistry,
    Anonymizer,
    MetricInfo,
    MetricRegistry,
    algorithm_registry,
    metric_registry,
)
from repro.engine.sinks import CsvSink, render_cell_value
from repro.engine.sharding import (
    merge_shard_outputs,
    qi_prefix_shards,
    suppression_merge_bound,
)
from repro.engine.sources import (
    CsvSource,
    DataSource,
    SyntheticSource,
    TableSource,
    concat_tables,
    infer_csv_schema,
)

__all__ = [
    "AlgorithmInfo",
    "AlgorithmOutput",
    "AlgorithmRegistry",
    "Anonymizer",
    "CachedRun",
    "ColumnStore",
    "ColumnStoreSource",
    "CsvSink",
    "CsvSource",
    "DataSource",
    "Engine",
    "MetricInfo",
    "MetricRegistry",
    "ResultCache",
    "RunPlan",
    "RunReport",
    "StageTimings",
    "SyntheticSource",
    "TableSource",
    "algorithm_registry",
    "concat_tables",
    "default_cache",
    "infer_csv_schema",
    "merge_shard_outputs",
    "metric_registry",
    "qi_prefix_shards",
    "render_cell_value",
    "run_with_spec",
    "suppression_merge_bound",
]
