"""Integration tests for the figure drivers (tiny scale).

These tests assert the *qualitative shape* the paper reports, which is the
actual reproduction target: who wins, how metrics move with l, d and n.
"""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.config import ExperimentConfig


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        n=900,
        seed=11,
        max_tables_per_family=1,
        l_values=(2, 6),
        d_values=(1, 3),
        sample_sizes=(300, 900),
        domain_scale=0.2,
    )


def _series_values(result, algorithm):
    return [value for _x, value in sorted(result.series[algorithm])]


class TestFigure2:
    def test_shape(self, tiny_config):
        result = figures.figure2("SAL", tiny_config)
        assert set(result.series) == {"Hilbert", "TP", "TP+"}
        for algorithm in result.series:
            xs = [x for x, _ in result.series[algorithm]]
            assert xs == [2.0, 6.0]
        # Stars grow with l, and TP+ never exceeds TP.
        for algorithm in result.series:
            values = _series_values(result, algorithm)
            assert values[0] <= values[-1]
        assert all(
            plus <= tp + 1e-9
            for plus, tp in zip(_series_values(result, "TP+"), _series_values(result, "TP"))
        )

    def test_records_collected(self, tiny_config):
        result = figures.figure2("SAL", tiny_config)
        assert len(result.records) == 2 * 3  # two l values, three algorithms
        assert result.format().startswith("Figure 2")


class TestFigure3:
    def test_shape(self, tiny_config):
        result = figures.figure3("OCC", tiny_config)
        assert set(result.series) == {"Hilbert", "TP", "TP+"}
        for algorithm in result.series:
            values = _series_values(result, algorithm)
            assert values[0] <= values[-1] + 1e-9  # stars grow with d


class TestTimingFigures:
    def test_figure4_and_5_and_6_produce_positive_times(self, tiny_config):
        for driver in (figures.figure4, figures.figure5, figures.figure6):
            result = driver("SAL", tiny_config)
            for points in result.series.values():
                assert all(value >= 0 for _x, value in points)
                assert len(points) >= 2

    def test_figure6_x_axis_is_cardinality(self, tiny_config):
        result = figures.figure6("SAL", tiny_config)
        xs = sorted({x for points in result.series.values() for x, _ in points})
        assert xs == [300.0, 900.0]


class TestKLFigures:
    def test_figure7_tp_plus_beats_tds(self, tiny_config):
        result = figures.figure7("SAL", tiny_config)
        assert set(result.series) == {"TDS", "TP+"}
        tds_values = _series_values(result, "TDS")
        tp_plus_values = _series_values(result, "TP+")
        # The paper's headline utility result: TP+ has lower KL-divergence.
        assert all(plus <= tds + 1e-9 for plus, tds in zip(tp_plus_values, tds_values))

    def test_figure8_runs(self, tiny_config):
        result = figures.figure8("SAL", tiny_config)
        assert set(result.series) == {"TDS", "TP+"}
        assert "Figure 8" in result.format()


class TestPhase3Frequency:
    def test_phase3_rare_on_census_workloads(self, tiny_config):
        result = figures.phase3_frequency("SAL", tiny_config)
        assert result.runs == len(tiny_config.d_values) * len(tiny_config.l_values)
        assert result.phase3_terminations == 0  # the paper's observation
        assert result.phase3_fraction == 0.0
        assert "phase 3" in result.format()

    @pytest.mark.parametrize("dataset", ["SAL", "OCC"])
    def test_counts_match_a_direct_census(self, tiny_config, dataset):
        from repro.core import three_phase

        counts = {1: 0, 2: 0, 3: 0}
        for d in tiny_config.d_values:
            for _label, table in figures._family(dataset, d, tiny_config):
                for l in tiny_config.l_values:
                    counts[three_phase.anonymize(table, l).stats.phase_reached] += 1
        result = figures.phase3_frequency(dataset, tiny_config)
        assert (
            result.phase1_terminations,
            result.phase2_terminations,
            result.phase3_terminations,
        ) == (counts[1], counts[2], counts[3])
        assert result.runs == sum(counts.values())
        # Every census run is recomputed, and deterministic.
        assert figures.phase3_frequency(dataset, tiny_config) == result


class TestDatasets:
    def test_unknown_dataset_is_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="SAL.*OCC|OCC.*SAL"):
            figures.figure2("adult", tiny_config)

    @pytest.mark.parametrize("driver", sorted(figures.FIGURES) + ["phase3_frequency"])
    def test_every_driver_rejects_an_unknown_dataset(self, tiny_config, driver):
        run = getattr(figures, driver)
        with pytest.raises(ValueError, match="unknown dataset"):
            run("adult", tiny_config)

    def test_dataset_names_are_case_insensitive(self, tiny_config):
        lower = figures._base_table("sal", tiny_config)
        upper = figures._base_table("SAL", tiny_config)
        assert lower.fingerprint() == upper.fingerprint()


class TestFigureResultFormatting:
    def test_format_handles_missing_points(self):
        result = figures.FigureResult(name="x", dataset="d", x_label="l", y_label="y")
        result.add_point("A", 1.0, 2.0)
        result.add_point("B", 2.0, 3.0)
        text = result.format()
        assert "-" in text
        assert "A" in text and "B" in text

    def test_to_csv_round_trip(self, tmp_path):
        import csv

        result = figures.FigureResult(name="x", dataset="d", x_label="l", y_label="y")
        result.add_point("A", 2.0, 10.0)
        result.add_point("A", 4.0, 20.0)
        result.add_point("B", 2.0, 5.0)
        path = tmp_path / "series.csv"
        result.to_csv(str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["l", "A", "B"]
        assert rows[1] == ["2.0", "10.0", "5.0"]
        assert rows[2] == ["4.0", "20.0", ""]
