"""The BENCH_scale trajectory: raw-speed measurements at 10^5..10^7 rows.

Where ``BENCH_fig6.json`` tracks the paper's figure sweep at smoke scale,
``BENCH_scale.json`` records the *million-row* behaviour of the pipeline:
one synthetic table per cardinality is converted to an on-disk
:class:`~repro.engine.columnstore.ColumnStore` and anonymized through the
memory-mapped engine path.
Each point carries the full per-stage attribution (``load`` / ``encode`` /
``state-init`` / ``phase1``..``phase3`` / ``publish`` / ``metrics``) read
from the run's span tree, so a
future regression is pinned on a stage, not a rerun.  The committed file
also feeds the execution planner's cost model
(:func:`repro.service.planner.load_scale_rates`).

Run via ``ldiversity bench`` or ``scripts/bench_scale.py``.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.dataset.synthetic import CensusConfig
from repro.engine import ColumnStore, ColumnStoreSource, Engine, RunPlan
from repro.engine.cache import ResultCache

__all__ = ["BenchScaleConfig", "run_bench_scale", "write_bench_scale"]

#: Stages every point reports, even when a stage took no measurable time.
STAGES = (
    "encode",
    "state-init",
    "phase1",
    "phase2",
    "phase3",
    "publish",
    "merge",
    "metrics",
)


@dataclass(frozen=True)
class BenchScaleConfig:
    """What the scale trajectory measures."""

    sizes: tuple[int, ...] = (100_000, 1_000_000, 10_000_000)
    dataset: str = "SAL"
    algorithm: str = "TP+"
    l: int = 6
    seed: int = 7
    #: QI-domain scale factor restoring the paper's rows-per-group regime.
    qi_scale: float = 0.24
    #: Best-of-``repeats`` seconds are kept per point.  Points above
    #: :data:`repeat_max_n` rows are always measured once — at 10^7 rows a
    #: second pass doubles minutes of wall clock for no extra signal.
    repeats: int = 1
    repeat_max_n: int = 1_000_000

    def census_config(self) -> CensusConfig:
        return CensusConfig.scaled(self.qi_scale)


def _measure_point(store_dir: Path, n: int, config: BenchScaleConfig) -> dict:
    """Best-of-repeats stage-attributed timing of one run at ``n`` rows."""
    best: dict | None = None
    repeats = max(config.repeats, 1) if n <= config.repeat_max_n else 1
    for _ in range(repeats):
        report = Engine(cache=ResultCache()).run(
            RunPlan(
                source=ColumnStoreSource(str(store_dir)),
                algorithm=config.algorithm,
                l=config.l,
                shards=1,
                use_cache=False,
            )
        )
        tree = report.trace
        seconds = {
            "total": report.seconds,
            "load": tree.total("load"),
            "anonymize": report.anonymize_seconds,
        }
        for stage in STAGES:
            seconds[stage] = tree.total(stage)
        # ``metrics`` keeps its historical meaning: verification included.
        seconds["metrics"] += tree.total("verify")
        point = {
            "n": n,
            "seconds": seconds,
            "stars": report.generalized.star_count(),
            "suppressed_tuples": report.generalized.suppressed_tuple_count(),
            "groups": len(report.generalized.groups()),
            "phase_reached": report.phase_reached,
        }
        if best is None or point["seconds"]["total"] < best["seconds"]["total"]:
            best = point
    assert best is not None
    return best


def run_bench_scale(
    config: BenchScaleConfig = BenchScaleConfig(), echo=print
) -> dict:
    """Measure the trajectory and return the BENCH_scale payload."""
    from repro.dataset.synthetic import make_occ, make_sal

    maker = make_sal if config.dataset.upper() == "SAL" else make_occ
    points: list[dict] = []
    for n in config.sizes:
        echo(f"[bench_scale] n={n}: generating {config.dataset} table")
        table = maker(n, seed=config.seed, config=config.census_config())
        with tempfile.TemporaryDirectory() as tmp:
            store_dir = Path(tmp) / "store"
            started = time.perf_counter()
            ColumnStore.from_table(table).save(store_dir)
            echo(
                f"[bench_scale] n={n}: column store written in "
                f"{time.perf_counter() - started:.2f}s"
            )
            del table  # the engine must run off the mmap, not this copy

            point = _measure_point(store_dir, n, config)
            points.append(point)
            echo(
                f"[bench_scale] n={n}: total "
                f"{point['seconds']['total']:.3f}s "
                f"(anonymize {point['seconds']['anonymize']:.3f}s, "
                f"stars {point['stars']})"
            )
    return {
        "benchmark": "bench_scale",
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "config": {
            "dataset": config.dataset,
            "algorithm": config.algorithm,
            "l": config.l,
            "seed": config.seed,
            "qi_scale": config.qi_scale,
            "shards": 1,
            "repeats": config.repeats,
            "source": "columnstore-mmap",
        },
        "points": points,
    }


def write_bench_scale(
    output: str | Path, config: BenchScaleConfig = BenchScaleConfig(), echo=print
) -> dict:
    """Run the trajectory and write ``output`` (the BENCH_scale.json file)."""
    payload = run_bench_scale(config, echo=echo)
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    echo(f"[bench_scale] trajectory written to {output}")
    return payload
