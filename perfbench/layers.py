"""Per-layer attribution shared by the workloads.

``Engine.run`` is one call; to see its layers from outside, a traced run
replays them after the op, outside its timed span, on a freshly loaded
table through the same public functions ``Engine.run`` calls, in its
order: planner → ``Table.grouping()`` → shard split → algorithm runner via
``run_with_spec`` → shard merge → ``spec.check_generalized`` → each
``metric_registry.compute``.  Each call is wrapped in a span named after
its layer; :func:`layer_values` turns spans into per-layer metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from recorder import Recorder, median

#: Spans whose metric is kept per op type (``<name>_s.<op>``).
PER_OP_SPANS = ("core.anonymize", "pool.execute_job")
#: Spans whose ``bytes`` attribute gives a MiB/s metric.
THROUGHPUT = {"columnstore.convert": "columnstore.convert_mb_per_s", "sinks.write": "sinks.mb_per_s"}


@dataclass(frozen=True)
class Op:
    """One op type: an anonymization request with a name."""

    name: str
    algorithm: str
    l: int
    shards: int | None = None
    workers: int | None = 1
    metrics: tuple[str, ...] = ()


def replay_engine(rec: Recorder, table, op: Op):
    """Replay ``Engine.run``'s layers on ``table``; returns the published table."""
    from repro.engine import algorithm_registry, metric_registry
    from repro.engine.core import run_with_spec
    from repro.engine.sharding import merge_shard_outputs, qi_prefix_shards
    from repro.privacy.spec import resolve_privacy
    from repro.service.planner import default_planner

    info = algorithm_registry.get(op.algorithm)
    spec = resolve_privacy(None, op.l)
    planner = default_planner()  # built by Engine() before run(), outside the op
    with rec.span("planner.decide") as span:
        decision = planner.decide(
            info, n=len(table), d=table.dimension, l=op.l,
            shards=op.shards, workers=op.workers, backend=None, privacy=spec,
        )
    span.attrs["shards"] = decision.shards
    with rec.span("grouping.build"):
        table.grouping()
    if decision.shards > 1:
        with rec.span("sharding.split", shards=decision.shards):
            rows = qi_prefix_shards(table, decision.shards, spec)
            shards = [table.subset(shard_rows) for shard_rows in rows]
        with rec.span("core.anonymize", op=op.name) as span:
            outputs = [run_with_spec(info.runner, shard, spec) for shard in shards]
        with rec.span("sharding.merge"):
            generalized = merge_shard_outputs(table, rows, outputs, spec, verify=False)
        span.attrs["phase"] = max((output.phase_reached or 0) for output in outputs)
    else:
        with rec.span("core.anonymize", op=op.name) as span:
            output = run_with_spec(info.runner, table, spec)
        generalized = output.generalized
        span.attrs["phase"] = output.phase_reached or 0
    with rec.span("privacy.verify"):
        spec.check_generalized(generalized)
    for name in op.metrics:
        with rec.span(f"metrics.{name}"):
            metric_registry.compute(name, table, generalized)
    return generalized


def layer_values(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    Seconds are the median per span name (``<name>_s``, per op type for
    :data:`PER_OP_SPANS`); counts and byte rates come from span attributes.
    """
    spans = [span for span in rec.root.walk() if span.end is not None]
    samples: dict[str, list[float]] = {}
    for span in spans:
        name = f"{span.name}_s"
        if span.name in PER_OP_SPANS:
            name = f"{name}.{span.attrs['op']}"
        samples.setdefault(name, []).append(span.seconds)
    values = {name: median(seconds) for name, seconds in samples.items()}

    def attrs(name: str, key: str) -> list:
        return [span.attrs[key] for span in spans if span.name == name and key in span.attrs]

    for span in spans:
        if span.name == "core.anonymize":
            key = f"core.phase_reached.{span.attrs['op']}"
            values[key] = max(values.get(key, 0), span.attrs["phase"])
    planned = attrs("planner.decide", "shards")
    if planned:
        values["planner.shards"] = sum(planned) / len(planned)
    values["sharding.shards"] = max(attrs("sharding.split", "shards"), default=0)
    for name, metric in THROUGHPUT.items():
        rates = [
            span.attrs["bytes"] / span.seconds / (1 << 20)
            for span in spans
            if span.name == name and "bytes" in span.attrs
        ]
        if rates:
            values[metric] = median(rates)
    values["artifact.bytes"] = median(attrs("artifact.save", "bytes"))
    return values
