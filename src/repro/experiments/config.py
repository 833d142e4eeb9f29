"""Experiment scale presets.

The paper runs on 600k-row census extracts and averages each data point over
every projection in SAL-d / OCC-d (up to ``C(7,4) = 35`` tables).  That takes
hours in pure Python, so the harness is parameterized by an
:class:`ExperimentConfig` with three presets:

* :meth:`ExperimentConfig.smoke` — seconds; used by the test suite and the
  pytest benchmarks;
* :meth:`ExperimentConfig.default` — minutes on a laptop; the base of
  ``scripts/run_experiments.py``'s default and report scales;
* :meth:`ExperimentConfig.paper_scale` — the paper's nominal parameters
  (600k rows, full projection families); provided for completeness.

Only the scale changes between presets — the workloads, algorithms and
metrics are identical — so the qualitative shape of every figure is
preserved.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling the scale of the reproduction experiments."""

    #: Cardinality of the synthetic SAL / OCC base tables.
    n: int = 20_000
    #: Seed for the synthetic data generator.
    seed: int = 7
    #: How many of the ``C(7, d)`` projections to average over (None = all).
    max_tables_per_family: int | None = 3
    #: Values of ``l`` swept in Figures 2, 4 and 7.
    l_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10)
    #: Values of ``d`` swept in Figures 3, 5 and 8.
    d_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    #: Fixed ``l`` for the stars-vs-d and KL-vs-d experiments (Figures 3 and 8).
    l_for_d_sweep: int = 6
    #: Fixed ``l`` for the time-vs-d experiment (Figure 5).
    l_for_time_d_sweep: int = 4
    #: Fixed ``l`` for the time-vs-n experiment (Figure 6).
    l_for_cardinality_sweep: int = 6
    #: Sample cardinalities for Figure 6 (paper: 100k .. 600k).
    sample_sizes: tuple[int, ...] = (4_000, 8_000, 12_000, 16_000, 20_000)
    #: Number of QI attributes of the "-4" workloads (SAL-4 / OCC-4).
    base_dimension: int = 4
    #: Scale factor applied to the QI domain sizes of the synthetic census
    #: data (1.0 = the paper's Table 6 domains).  Smaller tables need smaller
    #: domains to stay in the paper's rows-per-QI-group regime; see
    #: :meth:`repro.dataset.synthetic.CensusConfig.scaled`.
    domain_scale: float = 0.30

    # ----------------------------------------------------------------- presets

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """Tiny preset for tests and pytest benchmarks (seconds)."""
        return cls(
            n=1_500,
            seed=7,
            max_tables_per_family=1,
            l_values=(2, 4, 6, 10),
            d_values=(1, 2, 3, 4),
            sample_sizes=(500, 1_000, 1_500),
            domain_scale=0.22,
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """Laptop-scale preset (``scripts/run_experiments.py --scale default``)."""
        return cls()

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's nominal scale (600k rows, full projection families)."""
        return cls(
            n=600_000,
            max_tables_per_family=None,
            sample_sizes=(100_000, 200_000, 300_000, 400_000, 500_000, 600_000),
            domain_scale=1.0,
        )

    @classmethod
    def presets(cls) -> dict[str, Callable[[], "ExperimentConfig"]]:
        """Name -> factory for every preset; CLI/scripts derive choices from this."""
        return {
            "smoke": cls.smoke,
            "default": cls.default,
            "paper": cls.paper_scale,
        }
