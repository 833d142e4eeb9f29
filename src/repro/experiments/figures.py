"""Drivers that regenerate every figure of the paper's evaluation.

Each ``figureN`` function reproduces one figure of Section 6 and returns a
:class:`FigureResult` holding one series per algorithm, in the same units the
paper plots (average number of stars, seconds, KL-divergence).  The phase-3
frequency experiment described in the Section 6.1 text has its own driver.

All drivers take an :class:`~repro.experiments.config.ExperimentConfig` so the
same code runs at smoke-test, laptop and paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataset.projections import cardinality_samples, projection_family
from repro.dataset.synthetic import CensusConfig, make_occ, make_sal
from repro.dataset.table import Table
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import RunRecord, run_suite
from repro.text import format_fixed_width

__all__ = [
    "FIGURES",
    "FigureResult",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "phase3_frequency",
    "Phase3FrequencyResult",
]

#: Figure name -> driver; the single source of truth the CLI and
#: ``scripts/run_experiments.py`` derive their choices from.  Populated by
#: the :func:`_figure` decorator below, so a new driver is registered by
#: definition and help text can never drift from what is implemented.
FIGURES: dict = {}


def _figure(driver):
    """Register a ``figureN`` driver in :data:`FIGURES` under its own name."""
    FIGURES[driver.__name__] = driver
    return driver


@dataclass
class FigureResult:
    """Series data for one panel of one figure."""

    name: str
    dataset: str
    x_label: str
    y_label: str
    #: algorithm -> list of (x, y) points.
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: All raw measurements backing the series.
    records: list[RunRecord] = field(default_factory=list)

    def add_point(self, algorithm: str, x: float, y: float) -> None:
        self.series.setdefault(algorithm, []).append((x, y))

    def to_csv(self, path: str) -> None:
        """Write the series to a CSV file (one row per x value, one column per algorithm)."""
        import csv

        algorithms = sorted(self.series)
        xs = sorted({x for points in self.series.values() for x, _y in points})
        lookup = {
            (algorithm, x): y
            for algorithm, points in self.series.items()
            for x, y in points
        }
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([self.x_label] + algorithms)
            for x in xs:
                writer.writerow(
                    [x] + [lookup.get((algorithm, x), "") for algorithm in algorithms]
                )

    def format(self) -> str:
        """Render the series as an aligned text table (one row per x value)."""
        algorithms = sorted(self.series)
        xs = sorted({x for points in self.series.values() for x, _y in points})
        lookup = {
            (algorithm, x): y
            for algorithm, points in self.series.items()
            for x, y in points
        }
        header = [self.x_label] + algorithms
        rows = []
        for x in xs:
            row = [f"{x:g}"]
            for algorithm in algorithms:
                value = lookup.get((algorithm, x))
                row.append("-" if value is None else f"{value:.4g}")
            rows.append(row)
        title = f"{self.name} [{self.dataset}] — {self.y_label}"
        return title + "\n" + format_fixed_width(header, rows)


_MAKERS = {"SAL": make_sal, "OCC": make_occ}


def _base_table(dataset: str, config: ExperimentConfig, n: int | None = None) -> Table:
    maker = _MAKERS.get(dataset.upper())
    if maker is None:
        raise ValueError(f"unknown dataset {dataset!r}; expected one of {sorted(_MAKERS)}")
    census_config = (
        CensusConfig.scaled(config.domain_scale) if config.domain_scale < 1.0 else CensusConfig()
    )
    return maker(n or config.n, seed=config.seed, config=census_config)


def _family(dataset: str, d: int, config: ExperimentConfig) -> list[tuple[str, Table]]:
    base = _base_table(dataset, config)
    family = projection_family(base, d, max_tables=config.max_tables_per_family)
    return [(projected.label, projected.table) for projected in family]


def _sweep(
    result: FigureResult,
    tables: list[tuple[str, Table]],
    l: int,
    x: float,
    algorithms: tuple[str, ...],
    metric: str,
    with_kl: bool = False,
) -> None:
    records = run_suite(tables, l, algorithms, with_kl=with_kl)
    result.records.extend(records)
    for algorithm in algorithms:
        values = [getattr(record, metric) for record in records if record.algorithm == algorithm]
        values = [value for value in values if value is not None]
        if values:
            result.add_point(algorithm, x, sum(values) / len(values))


# --------------------------------------------------------------------- figures

_SUPPRESSION_ALGORITHMS = ("Hilbert", "TP", "TP+")
_KL_ALGORITHMS = ("TDS", "TP+")


@_figure
def figure2(dataset: str = "SAL", config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 2: average number of stars vs ``l`` on the 4-QI projections."""
    config = config or ExperimentConfig.default()
    result = FigureResult(
        name="Figure 2: stars vs l",
        dataset=f"{dataset}-{config.base_dimension}",
        x_label="l",
        y_label="average number of stars",
    )
    tables = _family(dataset, config.base_dimension, config)
    for l in config.l_values:
        _sweep(result, tables, l, float(l), _SUPPRESSION_ALGORITHMS, "stars")
    return result


@_figure
def figure3(dataset: str = "SAL", config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 3: average number of stars vs ``d`` at ``l = 6``."""
    config = config or ExperimentConfig.default()
    result = FigureResult(
        name=f"Figure 3: stars vs d (l={config.l_for_d_sweep})",
        dataset=f"{dataset}-d",
        x_label="d",
        y_label="average number of stars",
    )
    for d in config.d_values:
        tables = _family(dataset, d, config)
        _sweep(result, tables, config.l_for_d_sweep, float(d), _SUPPRESSION_ALGORITHMS, "stars")
    return result


@_figure
def figure4(dataset: str = "SAL", config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 4: computation time vs ``l`` on the 4-QI projections."""
    config = config or ExperimentConfig.default()
    result = FigureResult(
        name="Figure 4: time vs l",
        dataset=f"{dataset}-{config.base_dimension}",
        x_label="l",
        y_label="computation time (seconds)",
    )
    tables = _family(dataset, config.base_dimension, config)
    for l in config.l_values:
        _sweep(result, tables, l, float(l), _SUPPRESSION_ALGORITHMS, "seconds")
    return result


@_figure
def figure5(dataset: str = "SAL", config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 5: computation time vs ``d`` at ``l = 4``."""
    config = config or ExperimentConfig.default()
    result = FigureResult(
        name=f"Figure 5: time vs d (l={config.l_for_time_d_sweep})",
        dataset=f"{dataset}-d",
        x_label="d",
        y_label="computation time (seconds)",
    )
    for d in config.d_values:
        tables = _family(dataset, d, config)
        _sweep(result, tables, config.l_for_time_d_sweep, float(d), _SUPPRESSION_ALGORITHMS, "seconds")
    return result


@_figure
def figure6(dataset: str = "SAL", config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 6: computation time vs cardinality ``n`` at ``l = 6``."""
    config = config or ExperimentConfig.default()
    result = FigureResult(
        name=f"Figure 6: time vs n (l={config.l_for_cardinality_sweep})",
        dataset=f"{dataset}-{config.base_dimension}",
        x_label="n",
        y_label="computation time (seconds)",
    )
    base = _base_table(dataset, config, n=max(config.sample_sizes))
    qi_names = base.schema.qi_names[: config.base_dimension]
    projected = base.project(qi_names)
    for size, sample in zip(
        config.sample_sizes, cardinality_samples(projected, config.sample_sizes, seed=config.seed)
    ):
        tables = [(f"{dataset}-{config.base_dimension}@{size}", sample)]
        _sweep(
            result,
            tables,
            config.l_for_cardinality_sweep,
            float(size),
            _SUPPRESSION_ALGORITHMS,
            "seconds",
        )
    return result


@_figure
def figure7(dataset: str = "SAL", config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 7: KL-divergence vs ``l`` — TP+ against the TDS baseline."""
    config = config or ExperimentConfig.default()
    result = FigureResult(
        name="Figure 7: KL-divergence vs l",
        dataset=f"{dataset}-{config.base_dimension}",
        x_label="l",
        y_label="KL-divergence",
    )
    tables = _family(dataset, config.base_dimension, config)
    for l in config.l_values:
        _sweep(result, tables, l, float(l), _KL_ALGORITHMS, "kl", with_kl=True)
    return result


@_figure
def figure8(dataset: str = "SAL", config: ExperimentConfig | None = None) -> FigureResult:
    """Figure 8: KL-divergence vs ``d`` at ``l = 6`` — TP+ against TDS."""
    config = config or ExperimentConfig.default()
    result = FigureResult(
        name=f"Figure 8: KL-divergence vs d (l={config.l_for_d_sweep})",
        dataset=f"{dataset}-d",
        x_label="d",
        y_label="KL-divergence",
    )
    for d in config.d_values:
        tables = _family(dataset, d, config)
        _sweep(result, tables, config.l_for_d_sweep, float(d), _KL_ALGORITHMS, "kl", with_kl=True)
    return result


# ------------------------------------------------------- phase-three frequency


@dataclass(frozen=True)
class Phase3FrequencyResult:
    """Outcome of the Section 6.1 phase-three frequency experiment."""

    runs: int
    phase1_terminations: int
    phase2_terminations: int
    phase3_terminations: int

    @property
    def phase3_fraction(self) -> float:
        return self.phase3_terminations / self.runs if self.runs else 0.0

    def format(self) -> str:
        return (
            f"TP terminations over {self.runs} (table, l) runs: "
            f"phase 1: {self.phase1_terminations}, phase 2: {self.phase2_terminations}, "
            f"phase 3: {self.phase3_terminations} "
            f"({self.phase3_fraction:.1%} reached phase three)"
        )


def phase3_frequency(
    dataset: str = "SAL",
    config: ExperimentConfig | None = None,
) -> Phase3FrequencyResult:
    """How often TP needs its third phase across the SAL-d / OCC-d workloads.

    The paper reports that on all 128 census tables and all ``l`` in 2..10,
    TP terminates before phase three; this driver re-runs that census on the
    synthetic workloads, through the same verified engine runs as every
    figure.
    """
    config = config or ExperimentConfig.default()
    counters = {1: 0, 2: 0, 3: 0}
    for d in config.d_values:
        tables = _family(dataset, d, config)
        for l in config.l_values:
            for record in run_suite(tables, l, ("TP",)):
                counters[record.phase_reached] += 1
    return Phase3FrequencyResult(
        runs=sum(counters.values()),
        phase1_terminations=counters[1],
        phase2_terminations=counters[2],
        phase3_terminations=counters[3],
    )
