"""Run every figure of the paper at a chosen scale and write a report.

The report goes to ``--output`` (default ``experiment_results.txt``)::

    python scripts/run_experiments.py [--scale default|smoke|paper|report] \
        [--output results.txt]

Figure drivers are taken from ``repro.experiments.figures.FIGURES`` and run
in sorted order, each run going through the engine uncached: every figure
point is computed and timed afresh.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro.experiments import figures
from repro.experiments.config import ExperimentConfig


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
    arguments = parser.parse_args()
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
    with open(arguments.output, "w") as handle:
        handle.write("\n\n".join(sections) + "\n")
    print(f"\nreport written to {arguments.output}")


if __name__ == "__main__":
    main()
