"""Run every figure of the paper at a chosen scale and write a report.

The report goes to ``--output`` (default ``experiment_results.txt``)::

    python scripts/run_experiments.py [--scale default|smoke|paper|report] \
        [--output results.txt] [--workspace DIR]

Figure drivers are taken from ``repro.experiments.figures.FIGURES`` and run
in sorted order, each run going through the engine and its result cache;
the per-tier hit tally is appended to the report.  The in-process cache
keeps only the 64 most recent runs, so figures that share runs (the
stars-vs-l and time-vs-l sweeps) rarely replay each other within one sweep.
``--workspace`` backs the cache with the workspace's persistent run store
(its 256 most recent records), so a repeated sweep replays runs across
processes.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro.engine.cache import default_cache
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import cache_summary


def _config(scale: str) -> ExperimentConfig:
    presets = ExperimentConfig.presets()
    if scale in presets:
        return presets[scale]()
    if scale == "report":
        # Full l/d sweeps, two projections per family, 12k rows.
        return dataclasses.replace(
            ExperimentConfig.default(),
            n=12_000,
            max_tables_per_family=2,
            sample_sizes=(2_000, 4_000, 6_000, 8_000, 10_000, 12_000),
        )
    raise ValueError(f"unknown scale {scale!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default="report",
        choices=sorted(ExperimentConfig.presets()) + ["report"],
    )
    parser.add_argument("--output", default="experiment_results.txt")
    parser.add_argument(
        "--workspace",
        default=None,
        help="back the run cache with this workspace's persistent store, so "
        "repeated sweeps reuse results across processes",
    )
    arguments = parser.parse_args()
    if arguments.workspace:
        from repro.service import Workspace

        default_cache().store = Workspace(arguments.workspace).run_store()
    config = _config(arguments.scale)

    sections: list[str] = [f"scale={arguments.scale}  config={config}"]
    drivers = sorted(figures.FIGURES.items())
    for dataset in ("SAL", "OCC"):
        for name, driver in drivers:
            started = time.perf_counter()
            result = driver(dataset, config)
            elapsed = time.perf_counter() - started
            sections.append(result.format() + f"\n[{name} {dataset}: {elapsed:.1f}s]")
            print(sections[-1], flush=True)
        started = time.perf_counter()
        frequency = figures.phase3_frequency(dataset, config)
        elapsed = time.perf_counter() - started
        sections.append(f"[{dataset}] " + frequency.format() + f"  [{elapsed:.1f}s]")
        print(sections[-1], flush=True)

    sections.append(cache_summary(default_cache()))
    with open(arguments.output, "w") as handle:
        handle.write("\n\n".join(sections) + "\n")
    print(f"\nreport written to {arguments.output}")


if __name__ == "__main__":
    main()
