"""Record the BENCH_scale raw-speed trajectory (10^5..10^7 rows).

For each cardinality, a seeded synthetic table is converted to an on-disk
column store and anonymized through the memory-mapped engine path with stage
profiling enabled.  The per-stage attribution is written to a JSON
trajectory::

    PYTHONPATH=src python scripts/bench_scale.py --output BENCH_scale.json

The committed ``BENCH_scale.json`` recalibrates the execution planner's cost
model (see ``repro.service.planner.load_scale_rates``).  The 10^7 point
needs ~1 GB of scratch and minutes of wall clock; trim it with
``--sizes 100000,1000000`` for a quick recalibration.

``ldiversity bench`` is the same driver behind the CLI.
"""

from __future__ import annotations

import argparse

from repro.service.benchscale import BenchScaleConfig, write_bench_scale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_scale.json")
    parser.add_argument(
        "--sizes",
        default="100000,1000000,10000000",
        help="comma-separated row counts to measure",
    )
    parser.add_argument("--dataset", default="SAL", choices=["SAL", "OCC"])
    parser.add_argument("--algorithm", default="TP+")
    parser.add_argument("--l", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--qi-scale", type=float, default=0.24)
    parser.add_argument(
        "--repeats", type=int, default=1, help="runs per point; the minimum is kept"
    )
    arguments = parser.parse_args()
    sizes = tuple(int(part) for part in arguments.sizes.split(",") if part.strip())
    config = BenchScaleConfig(
        sizes=sizes,
        dataset=arguments.dataset,
        algorithm=arguments.algorithm,
        l=arguments.l,
        seed=arguments.seed,
        qi_scale=arguments.qi_scale,
        repeats=arguments.repeats,
    )
    write_bench_scale(arguments.output, config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
