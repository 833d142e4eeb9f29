"""Raw-speed path regressions: vectorized scan, spill, and scale calibration."""

from __future__ import annotations

import json

import pytest

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine import CsvSource
from repro.service.planner import (
    DEFAULT_RATE,
    ExecutionPlanner,
    PlannerCalibration,
    _nlogn,
    load_bench_calibration,
    load_scale_rates,
)
from repro.service.streaming import _scan, _scan_reference
from repro.engine.registry import algorithm_registry

QI = ("Age", "Gender", "Race")
SA = "Income"


@pytest.fixture(scope="module")
def census_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("scale") / "census.csv"
    make_sal(2_000, seed=11, config=CensusConfig.scaled(0.25)).project(QI).to_csv(
        str(path)
    )
    return str(path)


# ------------------------------------------------------------ scan regression


class TestVectorizedScan:
    def test_matches_per_tuple_oracle(self, census_csv):
        source = CsvSource(census_csv, QI, SA)
        histograms, n = _scan(source, chunk_rows=333)
        expected_histograms, expected_n = _scan_reference(source, chunk_rows=333)
        assert n == expected_n
        assert histograms == expected_histograms

    def test_chunk_size_invariant(self, census_csv):
        source = CsvSource(census_csv, QI, SA)
        small, n_small = _scan(source, chunk_rows=7)
        large, n_large = _scan(source, chunk_rows=10_000)
        assert n_small == n_large
        assert small == large


# ------------------------------------------------------- scale-rate loading


def _scale_payload(algorithm="TP+", points=None):
    return {
        "benchmark": "scale",
        "config": {"algorithm": algorithm},
        "points": points
        if points is not None
        else [
            {"n": 100_000, "backend": "numpy", "seconds": {"anonymize": 0.2}},
            {"n": 1_000_000, "backend": "numpy", "seconds": {"anonymize": 1.0}},
            {"n": 1_000_000, "backend": "reference", "seconds": {"anonymize": 4.0}},
        ],
    }


class TestLoadScaleRates:
    def test_picks_largest_numpy_n(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps(_scale_payload()))
        rates, source = load_scale_rates(path)
        assert source == str(path)
        # The retired reference entry in the file calibrates nothing.
        assert rates == {"TP+": pytest.approx(1.0 / _nlogn(1_000_000))}

    def test_points_without_a_backend_field_count(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        point = {"n": 1_000_000, "seconds": {"anonymize": 2.0}}
        path.write_text(json.dumps(_scale_payload(points=[point])))
        rates, _source = load_scale_rates(path)
        assert rates == {"TP+": pytest.approx(2.0 / _nlogn(1_000_000))}

    def test_missing_file_falls_through(self, tmp_path):
        rates, source = load_scale_rates(tmp_path / "absent.json")
        assert (rates, source) == ({}, "")

    def test_corrupt_file_falls_through(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        path.write_text("{not json")
        assert load_scale_rates(path) == ({}, "")

    def test_zero_second_points_are_ignored(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        path.write_text(
            json.dumps(
                _scale_payload(
                    points=[
                        {"n": 10, "backend": "numpy", "seconds": {"anonymize": 0.0}}
                    ]
                )
            )
        )
        assert load_scale_rates(path) == ({}, "")

    def test_scale_rates_override_fig6_rates(self, tmp_path):
        fig6 = tmp_path / "BENCH_fig6.json"
        fig6.write_text(
            json.dumps(
                {"seconds": {"numpy": {"TP+": {"5000": 1.0}, "TP": {"5000": 2.0}}}}
            )
        )
        scale = tmp_path / "BENCH_scale.json"
        scale.write_text(json.dumps(_scale_payload()))
        calibration = load_bench_calibration(fig6, scale_path=scale)
        # TP+ rate comes from the large-n trajectory, TP keeps the fig6 rate.
        assert calibration.rate("TP+") == pytest.approx(1.0 / _nlogn(1_000_000))
        assert calibration.rate("TP") == pytest.approx(2.0 / _nlogn(5_000))
        assert str(fig6) in calibration.source
        assert str(scale) in calibration.source

    def test_defaults_without_any_baseline(self, tmp_path):
        calibration = load_bench_calibration(
            tmp_path / "absent_fig6.json", scale_path=tmp_path / "absent_scale.json"
        )
        assert calibration.source == "defaults"
        assert calibration.rate("TP+") == DEFAULT_RATE


# ------------------------------------------------------- planner monotonicity


class TestPlannerScaleBehaviour:
    CALIBRATION = PlannerCalibration(rates={"TP+": 1.0e-7}, source="test")

    def _shards_at(self, n: int) -> int:
        planner = ExecutionPlanner(calibration=self.CALIBRATION, cpu_count=8)
        info = algorithm_registry.get("TP+")
        return planner.decide(info, n=n, d=3, l=6).shards

    def test_shard_choice_is_monotone_in_n(self):
        sizes = [1_000, 5_000, 20_000, 100_000, 500_000, 2_000_000, 10_000_000, 30_000_000]
        shard_counts = [self._shards_at(n) for n in sizes]
        assert shard_counts == sorted(shard_counts)
        assert shard_counts[0] == 1  # small tables are never sharded
        assert shard_counts[-1] > 1  # huge tables always fan out

    def test_scale_calibration_changes_the_estimate_not_the_contract(self):
        planner = ExecutionPlanner(calibration=self.CALIBRATION, cpu_count=8)
        info = algorithm_registry.get("TP+")
        decision = planner.decide(info, n=1_000_000, d=3, l=6)
        assert decision.estimated_seconds > 0
        assert decision.shards * min(decision.workers, 8) >= decision.workers
        assert any("calibration" in reason for reason in decision.reasons)
