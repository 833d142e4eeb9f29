"""The served job spec: a :class:`~repro.engine.core.RunPlan` plus what only
the service knows, parsed once by every route in (HTTP bodies, ledger replay,
the pool worker); ``/v1/plan`` uses the same field parsers.

:meth:`JobSpec.to_json` keeps the shape server ledgers have always held and
unknown keys (the legacy ``backend``, ``chunk_rows``, ``result_artifact``)
are ignored, so ledgers interoperate across versions.  Defaults are those of
the source dataclasses and of ``RunPlan``; nothing here restates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.core import RunPlan
from repro.engine.registry import AlgorithmInfo, algorithm_registry, metric_registry
from repro.engine.sources import CsvSource, SyntheticSource
from repro.errors import DataSourceError, ReproError, UnknownEntryError
from repro.privacy.spec import (
    FrequencyLDiversity,
    PrivacySpec,
    privacy_from_dict,
    privacy_registry,
)

__all__ = ["JobSpec", "SpecError", "algorithm_info", "build_source", "privacy_and_l"]


class SpecError(ReproError, ValueError):
    """A job spec (or one of its fields) that does not parse."""


def require_int(payload: dict, key: str, minimum: int | None = None) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(f"{key!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SpecError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def _entry(registry, name: object):
    if isinstance(name, str):
        try:
            return registry.get(name)
        except UnknownEntryError as error:
            raise SpecError(str(error)) from None
    raise SpecError(f"unknown {registry.kind} {name!r}; available: {list(registry.names())}")


def algorithm_info(payload: dict) -> AlgorithmInfo:
    """The registry entry named by ``payload["algorithm"]``."""
    return _entry(algorithm_registry, payload.get("algorithm", RunPlan.algorithm))


def privacy_and_l(payload: dict) -> tuple[PrivacySpec, int]:
    """The privacy model a payload targets, and its ``l``: a display hint
    with a ``privacy`` object, else required (>= 2) frequency l-diversity."""
    privacy = payload.get("privacy")
    if privacy is None:
        l = require_int(payload, "l", minimum=2)
        return FrequencyLDiversity(l), l
    if not isinstance(privacy, dict):
        raise SpecError(f"'privacy' must be an object, got {privacy!r}")
    try:
        spec = privacy_from_dict(privacy)
        floor = spec.group_floor()
    except UnknownEntryError as error:
        raise SpecError(str(error)) from None
    except (ValueError, OverflowError) as error:  # OverflowError: an infinite parameter
        raise SpecError(f"invalid privacy spec: {error}") from None
    if not privacy_registry.get(spec.kind).enforceable:
        raise SpecError(
            f"privacy model {spec.kind!r} is check-only and cannot be an "
            "anonymization target (audit published CSVs with "
            "`ldiversity verify` instead)"
        )
    return spec, require_int(payload, "l", minimum=1) if "l" in payload else floor


def build_source(source: object) -> CsvSource | SyntheticSource:
    """Decode a spec's ``source``; an empty CSV ``path`` is an upload not yet
    spooled, and missing or null synthetic fields take the dataclass defaults."""
    if not isinstance(source, dict):
        raise SpecError(f"'source' must be an object, got {source!r}")
    kind = source.get("kind")
    if kind == "csv":
        path, qi, sa = source.get("path"), source.get("qi"), source.get("sa")
        if not isinstance(path, str):
            raise SpecError(f"csv source requires a 'path' string, got {path!r}")
        if not isinstance(qi, list) or not qi or not all(isinstance(q, str) for q in qi):
            raise SpecError(f"'qi' must be a non-empty list of column names, got {qi!r}")
        if not isinstance(sa, str) or not sa:
            raise SpecError(f"'sa' must be a column name, got {sa!r}")
        if sa in qi:
            raise SpecError(f"sensitive column {sa!r} cannot also be a QI column")
        return CsvSource(path, tuple(qi), sa)
    if kind == "synthetic":
        fields: dict = {
            key: require_int(source, key, minimum)
            for key, minimum in (("n", 1), ("seed", 0), ("dimension", 1))
            if source.get(key) is not None
        }
        dataset = source.get("dataset")
        if dataset is not None:
            if not isinstance(dataset, str):
                raise SpecError(f"'dataset' must be a string, got {dataset!r}")
            fields["dataset"] = dataset.upper()
        try:
            return SyntheticSource(**fields)
        except DataSourceError as error:
            raise SpecError(str(error)) from None
    raise SpecError(f"unknown source kind {kind!r} (use 'synthetic' or 'csv')")


@dataclass(frozen=True)
class JobSpec:
    """One served job: the engine's plan plus what the service adds to it."""

    #: The run; ``privacy`` is always resolved and ``workers`` left to the
    #: pool worker's core budget.
    plan: RunPlan
    #: Whether the worker saves the published table as a result artifact.
    include_rows: bool = True
    #: The ledger job id, stamped by the pool on dispatch; keys the artifact.
    job_id: str = ""

    @classmethod
    def from_json(cls, payload: object) -> "JobSpec":
        """Parse and validate a spec's JSON form; raises :class:`SpecError`."""
        if not isinstance(payload, dict):
            raise SpecError(f"a job spec must be an object, got {payload!r}")
        info = algorithm_info(payload)
        privacy, l = privacy_and_l(payload)
        metrics = payload.get("metrics", [])
        if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
            raise SpecError(f"'metrics' must be a list of names, got {metrics!r}")
        for name in metrics:
            _entry(metric_registry, name)
        shards = payload.get("shards")
        if shards is not None:
            shards = require_int(payload, "shards", minimum=1)
            if shards > 1 and not info.supports_sharding:
                raise SpecError(
                    f"algorithm {info.name!r} does not support sharded execution"
                )
        include_rows = payload.get("include_rows", True)
        if not isinstance(include_rows, bool):
            raise SpecError(f"'include_rows' must be a boolean, got {include_rows!r}")
        request_id, job_id = payload.get("request_id", ""), payload.get("job_id", "")
        if not isinstance(request_id, str) or not isinstance(job_id, str):
            raise SpecError("'request_id' and 'job_id' must be strings")
        plan = RunPlan(
            source=build_source(payload.get("source")),
            algorithm=info.name,
            l=l,
            privacy=privacy,
            shards=shards,
            seed=require_int(payload, "seed") if "seed" in payload else RunPlan.seed,
            metrics=tuple(metrics),
            request_id=request_id,
        )
        return cls(plan, include_rows, job_id)

    def to_json(self) -> dict:
        """The JSON form :meth:`from_json` parses back to an equal spec."""
        plan, source = self.plan, self.plan.source
        if isinstance(source, CsvSource):
            source_json = {
                "kind": "csv", "path": source.path, "qi": list(source.qi_names),
                "sa": source.sa_name,
            }
        else:
            source_json = {
                "kind": "synthetic", "dataset": source.dataset, "n": source.n,
                "seed": source.seed, "dimension": source.dimension,
            }
        return {
            "algorithm": plan.algorithm,
            "l": plan.l,
            "privacy": plan.resolved_privacy().to_dict(),
            "metrics": list(plan.metrics),
            "shards": plan.shards,
            "seed": plan.seed,
            "include_rows": self.include_rows,
            "source": source_json,
            "request_id": plan.request_id,
            "job_id": self.job_id,
        }
