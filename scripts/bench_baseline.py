"""Record (or check) the figure-6 performance baseline.

Runs ``bench_fig6_time_vs_n`` (the Figure 6 driver at ``BENCH_CONFIG`` scale)
and writes the per-algorithm time-vs-n trajectories plus the total at the
largest cardinality to a JSON baseline::

    PYTHONPATH=src python scripts/bench_baseline.py --output BENCH_fig6.json

Every timing sits under a ``"numpy"`` key, the name the committed baselines
and the planner's calibration (``repro.service.planner``) read.  Future PRs
compare against the committed ``BENCH_fig6.json``; the CI smoke mode
re-times the sweep and fails when it has regressed more than
``--tolerance``-fold against the recorded baseline::

    PYTHONPATH=src python scripts/bench_baseline.py --check BENCH_fig6.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone

sys.path.insert(0, "benchmarks")
from _config import BENCH_CONFIG  # noqa: E402

from repro.engine.cache import default_cache  # noqa: E402
from repro.experiments import figures  # noqa: E402

ALGORITHMS = ("Hilbert", "TP", "TP+")


def _series(
    dataset: str, repeats: int
) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Per-algorithm {n: seconds} for figure 6, minimum over ``repeats`` runs.

    Also returns the per-stage (anonymize / metrics) second totals of the
    last repeat, so the recorded baseline attributes time to the right
    pipeline stage.  The engine's result cache is cleared before every
    repeat — a cached replay would return the first repeat's measurement and
    defeat the min-over-repeats noise reduction.
    """
    best: dict[str, dict[str, float]] = {name: {} for name in ALGORITHMS}
    stages = {"anonymize_seconds": 0.0, "metrics_seconds": 0.0}
    for _ in range(repeats):
        default_cache().clear()
        result = figures.figure6(dataset, BENCH_CONFIG)
        for name in ALGORITHMS:
            for x, y in result.series[name]:
                key = str(int(x))
                previous = best[name].get(key)
                best[name][key] = y if previous is None else min(previous, y)
        stages = {
            "anonymize_seconds": sum(record.seconds for record in result.records),
            "metrics_seconds": sum(record.metrics_seconds for record in result.records),
        }
    return best, stages


def _total_at_max_n(series: dict[str, dict[str, float]]) -> float:
    key = str(max(BENCH_CONFIG.sample_sizes))
    return sum(series[name][key] for name in ALGORITHMS)


def record(dataset: str, repeats: int, output: str) -> None:
    print(f"timing figure6 [{dataset}] at BENCH_CONFIG scale, {repeats} repeats")
    series, stages = _series(dataset, repeats)
    total = _total_at_max_n(series)
    baseline = {
        "benchmark": "bench_fig6_time_vs_n",
        "dataset": dataset,
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "config": {
            "n": BENCH_CONFIG.n,
            "seed": BENCH_CONFIG.seed,
            "l": BENCH_CONFIG.l_for_cardinality_sweep,
            "sample_sizes": list(BENCH_CONFIG.sample_sizes),
            "domain_scale": BENCH_CONFIG.domain_scale,
            "base_dimension": BENCH_CONFIG.base_dimension,
        },
        "seconds": {"numpy": series},
        # Per-stage attribution (whole figure-6 sweep, last repeat): a future
        # regression in the BENCH totals can be pinned on the anonymize or
        # the metrics stage without re-profiling.
        "stage_seconds": {"numpy": stages},
        "total_seconds_at_max_n": {"numpy": total},
    }
    with open(output, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"total at n={max(BENCH_CONFIG.sample_sizes)}: {total * 1000:.2f} ms")
    print(f"baseline written to {output}")


def check(dataset: str, repeats: int, baseline_path: str, tolerance: float) -> int:
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    recorded = baseline["total_seconds_at_max_n"]["numpy"]
    series, _stages = _series(dataset, repeats)
    current = _total_at_max_n(series)
    ratio = current / recorded if recorded else float("inf")
    print(
        f"figure6 [{dataset}] at n={max(BENCH_CONFIG.sample_sizes)}: "
        f"{current * 1000:.2f} ms (baseline {recorded * 1000:.2f} ms, {ratio:.2f}x)"
    )
    if ratio > tolerance:
        print(f"FAIL: regression above the {tolerance:g}x tolerance")
        return 1
    print("OK: within tolerance")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="SAL", choices=["SAL", "OCC"])
    parser.add_argument("--output", default="BENCH_fig6.json")
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per point; the minimum is kept"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="smoke mode: re-time the sweep and compare against this baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="maximum allowed slowdown factor in --check mode",
    )
    arguments = parser.parse_args()
    if arguments.check:
        return check(arguments.dataset, arguments.repeats, arguments.check, arguments.tolerance)
    record(arguments.dataset, arguments.repeats, arguments.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
