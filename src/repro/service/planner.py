"""Cost-based execution planning: pick shards / workers from table stats.

Hand-tuning ``--shards`` and ``--workers`` per invocation does not survive
contact with a figure sweep that spans three orders of magnitude in ``n``.
The :class:`ExecutionPlanner` replaces those hand-passed defaults with a
small cost model:

* **per-algorithm run cost** — a rate per ``n log2 n`` unit (every
  registered algorithm is ``O(d n log n)``-ish), from the measured table
  :data:`CALIBRATED_RATES`; algorithms absent from it fall back to the mean
  rate.  The rates are literals, so a decision never depends on the files
  around the process;
* **sharding** — ``s`` QI-prefix shards of ``n/s`` rows run in
  ``ceil(s / w)`` waves on ``w`` workers, at the price of per-shard setup,
  per-worker process spawn, and an O(n) merge pass.

The planner enumerates a small candidate grid, estimates each
configuration's wall-clock seconds, and returns the argmin as an
:class:`ExecutionDecision` — including the full candidate table so
``ldiversity plan`` can *explain* the choice.  Caller-supplied values always
win: a decision only fills in the dimensions the caller left as ``None``.

Capability metadata matters: algorithms registered with
``supports_sharding=False`` are never sharded, and the decision degrades to
a single sequential run when the table is too small for sharding to pay for
its overhead (the empirically dominant case at benchmark scale).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.engine.registry import AlgorithmInfo
from repro.privacy.spec import PrivacySpec

__all__ = [
    "ExecutionDecision",
    "ExecutionPlanner",
    "PlannerCalibration",
    "default_planner",
    "per_job_worker_budget",
]

#: Estimated seconds to spawn one process-pool worker (pool startup, imports).
WORKER_SPAWN_SECONDS = 0.05
#: Estimated fixed seconds per shard (split, subset build, dispatch).
SHARD_SETUP_SECONDS = 0.01
#: Estimated seconds per row of the shard-output merge pass.
MERGE_SECONDS_PER_ROW = 2.5e-7
#: A shard below this many rows is all overhead; never split finer.
MIN_SHARD_ROWS = 2_000
#: Shard counts the planner considers.
SHARD_CANDIDATES = (1, 2, 4, 8, 16, 32)


def _nlogn(n: int | float) -> float:
    return float(n) * math.log2(max(float(n), 2.0))


def per_job_worker_budget(pool_workers: int, cpu_count: int | None = None) -> int:
    """Engine workers one pool job may use without oversubscribing the host.

    The serving pool runs up to ``pool_workers`` jobs concurrently; giving
    each job the whole machine would multiply load by the pool width, while
    the historical ``workers=1`` pin wastes every idle core on a lightly
    loaded pool.  The budget splits the cores evenly across the possible
    concurrent jobs — ``max(1, cpus // pool_workers)`` — so a single-worker
    pool hands one big job all the cores, a pool as wide as the machine
    keeps the old pin, and the product never exceeds the core count.
    """
    if pool_workers < 1:
        raise ValueError(f"pool_workers must be >= 1, got {pool_workers}")
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return max(1, int(cpus) // int(pool_workers))


#: Seconds per ``n log2 n`` unit of the algorithms with a measured rate.  TP
#: and Hilbert are their figure-6 seconds at n = 2500 (SAL, l = 6, d = 4);
#: TP+ is its unsharded seconds at n = 10^7 (SAL, l = 6, d = 7).  Every other
#: algorithm is priced at their mean.
CALIBRATED_RATES = {
    "TP": 0.0024413000001004548 / _nlogn(2500),
    "Hilbert": 0.0028236929997547122 / _nlogn(2500),
    "TP+": 2.63661963100094 / _nlogn(10**7),
}


@dataclass(frozen=True)
class PlannerCalibration:
    """Per-algorithm cost rates (seconds per ``n log2 n`` unit)."""

    #: algorithm -> rate.
    rates: dict[str, float] = field(default_factory=lambda: dict(CALIBRATED_RATES))

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("a planner calibration needs at least one rate")

    def rate(self, algorithm: str) -> float:
        if algorithm in self.rates:
            return self.rates[algorithm]
        return sum(self.rates.values()) / len(self.rates)


@dataclass(frozen=True)
class ExecutionDecision:
    """The planner's resolved configuration for one run."""

    shards: int
    workers: int
    estimated_seconds: float
    #: Every (shards, workers, estimated seconds) configuration considered.
    candidates: tuple[tuple[int, int, float], ...] = ()
    reasons: tuple[str, ...] = ()
    #: Canonical token of the privacy spec the decision was made for
    #: (empty when the caller planned with a bare ``l``).
    privacy: str = ""

    def explain(self) -> str:
        """Human-readable account of the decision (``ldiversity plan``)."""
        lines = [
            f"chosen: shards={self.shards} workers={self.workers} "
            f"(estimated {self.estimated_seconds:.4f}s)"
        ]
        if self.privacy:
            lines.append(f"  privacy: {self.privacy}")
        lines.extend(f"  - {reason}" for reason in self.reasons)
        if self.candidates:
            lines.append("  candidates (shards, workers -> estimated seconds):")
            for shards, workers, seconds in self.candidates:
                marker = " *" if (shards, workers) == (self.shards, self.workers) else ""
                lines.append(f"    s={shards:<3} w={workers:<3} {seconds:.4f}s{marker}")
        return "\n".join(lines)


class ExecutionPlanner:
    """Chooses shards/workers for a run from (n, d, l) table stats."""

    def __init__(
        self,
        calibration: PlannerCalibration | None = None,
        cpu_count: int | None = None,
    ) -> None:
        self.calibration = calibration if calibration is not None else PlannerCalibration()
        self.cpu_count = cpu_count if cpu_count is not None else (os.cpu_count() or 1)

    # ------------------------------------------------------------- cost model

    def _estimate(self, rate: float, n: int, shards: int, workers: int) -> float:
        per_shard = rate * _nlogn(n / shards)
        waves = math.ceil(shards / workers)
        seconds = waves * per_shard
        if workers > 1:
            seconds += WORKER_SPAWN_SECONDS * workers
        if shards > 1:
            seconds += SHARD_SETUP_SECONDS * shards + MERGE_SECONDS_PER_ROW * n
        return seconds

    # --------------------------------------------------------------- planning

    def decide(
        self,
        info: AlgorithmInfo,
        n: int,
        d: int,
        l: int,
        shards: int | None = None,
        workers: int | None = None,
        backend: None = None,
        privacy: "PrivacySpec | None" = None,
    ) -> ExecutionDecision:
        """Resolve a run configuration, honouring caller-fixed dimensions.

        ``shards``/``workers`` left as ``None`` are chosen by the cost model.
        ``privacy`` keys the decision on the requested spec: its group floor
        bounds how finely the table may be sharded, and the decision echoes
        the spec so ``ldiversity plan`` output is spec-aware.
        """
        # Compatibility shim: perfbench/layers.py still passes backend=None.
        if backend is not None:
            raise ValueError(f"there is one data plane; backend={backend!r} is not accepted")
        del d  # current cost model depends on n (and the spec's floor) only
        rate = self.calibration.rate(info.name)
        reasons: list[str] = [f"calibration: {rate:.4g}s per n log2 n unit"]
        floor = privacy.group_floor() if privacy is not None else max(int(l), 1)
        if privacy is not None:
            reasons.append(
                f"privacy: {privacy.describe()} (group floor {floor})"
            )

        shard_candidates = self._shard_candidates(info, n, shards, reasons, floor)
        candidates: list[tuple[int, int, float]] = []
        for shard_count in shard_candidates:
            for worker_count in self._worker_candidates(shard_count, workers):
                candidates.append(
                    (shard_count, worker_count, self._estimate(rate, max(n, 1), shard_count, worker_count))
                )
        best_shards, best_workers, best_seconds = min(
            candidates, key=lambda entry: (entry[2], entry[0], entry[1])
        )
        reasons.append(
            f"cost model over n={n}: {len(candidates)} candidate configurations, "
            f"unsharded estimate {self._estimate(rate, max(n, 1), 1, 1):.4f}s"
        )
        return ExecutionDecision(
            shards=best_shards,
            workers=best_workers,
            estimated_seconds=best_seconds,
            candidates=tuple(candidates),
            reasons=tuple(reasons),
            privacy=privacy.token() if privacy is not None else "",
        )

    def _shard_candidates(
        self,
        info: AlgorithmInfo,
        n: int,
        requested: int | None,
        reasons: list[str],
        floor: int = 1,
    ) -> tuple[int, ...]:
        if requested is not None:
            if requested > 1 and not info.supports_sharding:
                raise ValueError(
                    f"algorithm {info.name!r} does not support sharded execution"
                )
            reasons.append(f"shards fixed by caller: {requested}")
            return (requested,)
        if not info.supports_sharding:
            reasons.append(f"{info.name!r} declares supports_sharding=False: never sharded")
            return (1,)
        # A shard needs room for several complete groups of the spec's floor
        # or the eligibility repair pass will just merge it away again; the
        # fixed MIN_SHARD_ROWS dominates except at extreme floors.
        min_rows = max(MIN_SHARD_ROWS, 8 * max(floor, 1))
        viable = tuple(
            count for count in SHARD_CANDIDATES if count == 1 or count * min_rows <= n
        )
        if viable == (1,):
            reasons.append(
                f"n={n} below {2 * min_rows} rows: sharding cannot amortize its overhead"
            )
        return viable

    def _worker_candidates(self, shards: int, requested: int | None) -> tuple[int, ...]:
        if requested is not None:
            return (min(requested, max(shards, 1)) if requested > 0 else 1,)
        ceiling = min(shards, self.cpu_count)
        candidates = {1}
        width = 2
        while width <= ceiling:
            candidates.add(width)
            width *= 2
        candidates.add(ceiling)
        return tuple(sorted(candidates))


_default_planner: ExecutionPlanner | None = None


def default_planner() -> ExecutionPlanner:
    """A process-global planner with the built-in calibration."""
    global _default_planner
    if _default_planner is None:
        _default_planner = ExecutionPlanner()
    return _default_planner
