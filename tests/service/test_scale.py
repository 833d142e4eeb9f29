"""Raw-speed path regressions: vectorized scan and the planner at scale."""

from __future__ import annotations

import pytest

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine import ColumnStore, CsvSource
from repro.service.planner import ExecutionPlanner, PlannerCalibration
from repro.service.streaming import _scan
from tests.group_oracles import scan_reference
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


@pytest.fixture(scope="module")
def census_store(census_csv, tmp_path_factory):
    return ColumnStore.convert_csv(
        census_csv, tmp_path_factory.mktemp("scale-store") / "store", QI, SA
    )


# ------------------------------------------------------------ scan regression


class TestVectorizedScan:
    def test_matches_per_tuple_oracle(self, census_csv, census_store):
        histograms, n = _scan(census_store, chunk_rows=333)
        expected_histograms, expected_n = scan_reference(CsvSource(census_csv, QI, SA))
        assert n == expected_n
        assert histograms == expected_histograms

    def test_chunk_size_invariant(self, census_store):
        small, n_small = _scan(census_store, chunk_rows=7)
        large, n_large = _scan(census_store, chunk_rows=10_000)
        assert n_small == n_large
        assert small == large


# ------------------------------------------------------- planner monotonicity


class TestPlannerScaleBehaviour:
    CALIBRATION = PlannerCalibration(rates={"TP+": 1.0e-7})

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
