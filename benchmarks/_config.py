"""Shared configuration for the benchmark suite.

The benchmarks regenerate every figure of the paper at a reduced scale so the
whole suite finishes in a few minutes on a laptop.  ``BENCH_CONFIG`` mirrors
the structure of the paper's experiments (same sweeps, same algorithms); only
``n``, the number of projections averaged, and the QI domain scale are
reduced.  Run the figure drivers with ``ExperimentConfig.default()`` (or
``paper_scale()``), e.g. through ``scripts/run_experiments.py``, for the
figures at full size.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig

#: Scale used by the pytest-benchmark suite.
BENCH_CONFIG = ExperimentConfig(
    n=2_500,
    seed=7,
    max_tables_per_family=1,
    l_values=(2, 4, 6, 8, 10),
    d_values=(1, 2, 3, 4, 5),
    sample_sizes=(800, 1_600, 2_500),
    domain_scale=0.24,
)


def series_values(result, algorithm):
    """Y-values of one algorithm's series, in ascending x order."""
    return [value for _x, value in sorted(result.series[algorithm])]
