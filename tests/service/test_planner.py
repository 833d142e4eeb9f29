"""Tests for the cost-based ExecutionPlanner and its built-in calibration."""

from __future__ import annotations

import json

import pytest

from repro.engine.registry import AlgorithmInfo, algorithm_registry
from repro.privacy.spec import resolve_privacy
from repro.service.planner import (
    CALIBRATED_RATES,
    ExecutionPlanner,
    PlannerCalibration,
    per_job_worker_budget,
)


def _noop_runner(table, l):  # pragma: no cover - never executed
    raise AssertionError("planner tests must not run algorithms")


def _write_timing_file(directory, kind: str, payload) -> None:
    """A timing file named as the retired figure-6 / scale benchmarks wrote
    theirs (``kind`` is ``fig6`` or ``scale``)."""
    (directory / f"BENCH_{kind}.json").write_text(json.dumps(payload))


@pytest.fixture(scope="module")
def planner() -> ExecutionPlanner:
    """A planner pinned to 8 CPUs so decisions are machine-independent."""
    return ExecutionPlanner(cpu_count=8)


@pytest.fixture(scope="module")
def tp() -> AlgorithmInfo:
    return algorithm_registry.get("TP")


class TestCalibration:
    def test_rates_are_the_measured_literals(self):
        assert CALIBRATED_RATES == {
            "TP": 8.651177202294731e-08,
            "Hilbert": 1.0006254251731459e-07,
            "TP+": 1.1338594229825439e-08,
        }
        assert PlannerCalibration().rates == CALIBRATED_RATES

    def test_unknown_algorithm_uses_mean_rate(self):
        calibration = PlannerCalibration()
        benched = [calibration.rate(name) for name in ("TP", "TP+", "Hilbert")]
        assert calibration.rate("TDS") == pytest.approx(sum(benched) / 3)

    def test_a_calibration_needs_a_rate(self):
        with pytest.raises(ValueError, match="at least one rate"):
            PlannerCalibration(rates={})

    def test_stray_benchmark_files_do_not_change_a_decision(self, tmp_path, monkeypatch):
        """The planner reads no file, so the working directory cannot steer it.

        A figure-6 timing file there holding only a TP+ entry used to price
        TP at TP+'s rate and run TP at 10^6 rows unsharded.
        """
        tp = algorithm_registry.get("TP")
        expected = ExecutionPlanner(cpu_count=2).decide(tp, n=10**6, d=7, l=6)
        assert (expected.shards, expected.workers) == (8, 2)
        monkeypatch.chdir(tmp_path)
        _write_timing_file(tmp_path, "fig6", {"seconds": {"numpy": {"TP+": {"2500": 0.001}}}})
        assert ExecutionPlanner(cpu_count=2).decide(tp, n=10**6, d=7, l=6) == expected

    def test_malformed_benchmark_files_do_not_break_planning(self, tmp_path, monkeypatch):
        """A JSON list where a timing file's object was expected used to
        raise AttributeError from ``ExecutionPlanner()``."""
        monkeypatch.chdir(tmp_path)
        for kind in ("fig6", "scale"):
            _write_timing_file(tmp_path, kind, [])
        assert ExecutionPlanner().calibration == PlannerCalibration()


class TestShardDecisions:
    def test_monotone_in_n(self, planner, tp):
        """More rows never means fewer shards (the satellite requirement)."""
        sizes = [1_000, 10_000, 100_000, 1_000_000, 5_000_000]
        shard_choices = [planner.decide(tp, n=n, d=4, l=4).shards for n in sizes]
        assert shard_choices == sorted(shard_choices)
        assert shard_choices[0] == 1  # tiny tables are never sharded
        assert shard_choices[-1] > 1  # huge tables are

    def test_small_tables_run_unsharded_sequential(self, planner, tp):
        decision = planner.decide(tp, n=2_500, d=4, l=6)
        assert decision.shards == 1
        assert decision.workers == 1

    def test_bench_workload_matches_hand_tuned_best(self, planner, tp):
        """Acceptance: within 10% of the best hand-tuned setting at figure-6 scale.

        Measured, not self-referential: every hand-tunable sequential shard
        count is actually run and timed at the benchmark's largest
        cardinality, and the planner's chosen configuration must be within
        10% of the fastest measured one.  Process-pool configurations are
        excluded from the measured grid — ~50ms of pool spawn against a
        ~3ms run can never win at this scale, it would only add noise.
        """
        for n in (800, 1_600, 2_500):
            assert (planner.decide(tp, n=n, d=4, l=6).shards) == 1

        from repro.dataset.synthetic import CensusConfig
        from repro.engine import Engine, ResultCache, RunPlan, SyntheticSource

        decision = planner.decide(tp, n=2_500, d=4, l=6)
        source = SyntheticSource(
            "SAL", n=2_500, seed=7, dimension=4, config=CensusConfig.scaled(0.24)
        )
        engine = Engine(cache=ResultCache())
        measured: dict[int, float] = {}
        for shards in (1, 2, 4):
            measured[shards] = min(
                engine.run(
                    RunPlan(
                        source=source, algorithm="TP", l=6,
                        shards=shards, workers=1, use_cache=False,
                    )
                ).anonymize_seconds
                for _repeat in range(3)
            )
        assert measured[decision.shards] <= min(measured.values()) * 1.10

    def test_never_shards_unsupported_algorithms(self, planner):
        info = AlgorithmInfo(name="NoShard", runner=_noop_runner, supports_sharding=False)
        for n in (1_000, 100_000, 10_000_000):
            decision = planner.decide(info, n=n, d=4, l=4)
            assert decision.shards == 1
        assert any("supports_sharding=False" in reason for reason in decision.reasons)

    def test_explicit_shards_on_unsupported_algorithm_raises(self, planner):
        info = AlgorithmInfo(name="NoShard", runner=_noop_runner, supports_sharding=False)
        with pytest.raises(ValueError, match="NoShard"):
            planner.decide(info, n=10_000, d=4, l=4, shards=4)

    def test_caller_overrides_are_honoured(self, planner, tp):
        decision = planner.decide(tp, n=5_000_000, d=4, l=4, shards=2, workers=1)
        assert decision.shards == 2
        assert decision.workers == 1

    def test_workers_never_exceed_cpu_or_shards(self, tp):
        planner = ExecutionPlanner(cpu_count=2)
        decision = planner.decide(tp, n=5_000_000, d=4, l=4)
        assert decision.workers <= 2
        assert decision.workers <= decision.shards

    def test_single_cpu_machines_stay_sequential(self, tp):
        planner = ExecutionPlanner(cpu_count=1)
        for n in (1_000, 1_000_000, 10_000_000):
            assert planner.decide(tp, n=n, d=4, l=4).workers == 1


class TestDegenerateInputs:
    """The planner must resolve any (n, d, l) the HTTP layer can throw at it."""

    def test_empty_table_runs_unsharded_sequential(self, planner, tp):
        decision = planner.decide(tp, n=0, d=4, l=4)
        assert decision.shards == 1
        assert decision.workers == 1
        assert decision.estimated_seconds >= 0.0

    def test_single_row_table(self, planner, tp):
        decision = planner.decide(tp, n=1, d=4, l=2)
        assert (decision.shards, decision.workers) == (1, 1)

    def test_n_below_l_still_plans(self, planner, tp):
        """Eligibility is the engine's concern; the planner just configures."""
        decision = planner.decide(tp, n=3, d=4, l=10)
        assert decision.shards == 1
        assert decision.estimated_seconds >= 0.0

    def test_single_column_qi(self, planner, tp):
        decision = planner.decide(tp, n=100_000, d=1, l=4)
        assert decision.shards >= 1

    def test_degenerate_inputs_are_deterministic(self, planner, tp):
        for n, d, l in ((0, 1, 2), (1, 1, 2), (2, 1, 1000)):
            assert planner.decide(tp, n=n, d=d, l=l) == planner.decide(tp, n=n, d=d, l=l)

    def test_explicit_zero_workers_degrades_to_one(self, planner, tp):
        decision = planner.decide(tp, n=1_000_000, d=4, l=4, shards=4, workers=0)
        assert decision.workers == 1


class TestBackendShim:
    def test_none_is_accepted(self, planner, tp):
        assert planner.decide(tp, n=1_000, d=4, l=4, backend=None) == planner.decide(
            tp, n=1_000, d=4, l=4
        )

    @pytest.mark.parametrize("name", ["numpy", "reference", "auto"])
    def test_any_named_backend_is_rejected(self, planner, tp, name):
        with pytest.raises(ValueError, match="one data plane"):
            planner.decide(tp, n=1_000, d=4, l=4, backend=name)


#: (cpus, algorithm) -> (shards, workers) at n = 10^3, 10^5, 10^6, 10^7, as
#: decided with the rates now in CALIBRATED_RATES when the planner still
#: carried a per-backend calibration level; the same for every l in GRID_LS.
_SMALL = [(1, 1), (1, 1)]
PINNED_DECISIONS = {
    (2, "Hilbert"): _SMALL + [(8, 2), (32, 2)],
    (2, "Mondrian"): _SMALL + [(4, 2), (32, 2)],
    (2, "TDS"): _SMALL + [(4, 2), (32, 2)],
    (2, "TP"): _SMALL + [(8, 2), (32, 2)],
    (2, "TP+"): _SMALL + [(1, 1), (1, 1)],
    (8, "Hilbert"): _SMALL + [(4, 4), (16, 8)],
    (8, "Mondrian"): _SMALL + [(4, 4), (16, 8)],
    (8, "TDS"): _SMALL + [(4, 4), (16, 8)],
    (8, "TP"): _SMALL + [(4, 4), (16, 8)],
    (8, "TP+"): _SMALL + [(1, 1), (1, 1)],
}
GRID_NS = (10**3, 10**5, 10**6, 10**7)
GRID_LS = (2, 6, 10)


class TestPinnedDecisionGrid:
    @pytest.mark.parametrize("cpus, algorithm", sorted(PINNED_DECISIONS))
    def test_decisions_match_the_pinned_grid(self, cpus, algorithm):
        planner = ExecutionPlanner(cpu_count=cpus)
        info = algorithm_registry.get(algorithm)
        for n, expected in zip(GRID_NS, PINNED_DECISIONS[cpus, algorithm]):
            for l in GRID_LS:
                decision = planner.decide(
                    info, n=n, d=7, l=l, privacy=resolve_privacy(None, l)
                )
                assert (decision.shards, decision.workers) == expected, (n, l)


class TestExplain:
    def test_explain_lists_candidates_and_choice(self, planner, tp):
        decision = planner.decide(tp, n=1_000_000, d=4, l=4)
        text = decision.explain()
        assert f"shards={decision.shards}" in text
        assert "candidates" in text
        assert "calibration: 8.651e-08s per n log2 n unit" in text

    def test_decisions_are_deterministic(self, planner, tp):
        first = planner.decide(tp, n=750_000, d=4, l=4)
        second = planner.decide(tp, n=750_000, d=4, l=4)
        assert first == second


class TestPerJobWorkerBudget:
    def test_splits_cores_evenly_across_pool_width(self):
        assert per_job_worker_budget(1, cpu_count=8) == 8
        assert per_job_worker_budget(2, cpu_count=8) == 4
        assert per_job_worker_budget(3, cpu_count=8) == 2
        assert per_job_worker_budget(8, cpu_count=8) == 1

    def test_never_drops_below_the_historical_pin(self):
        # A pool wider than the machine keeps the old workers=1 behaviour.
        assert per_job_worker_budget(4, cpu_count=1) == 1
        assert per_job_worker_budget(16, cpu_count=8) == 1

    def test_product_never_oversubscribes(self):
        for cpus in (1, 2, 4, 6, 8, 32):
            for width in range(1, 12):
                assert per_job_worker_budget(width, cpu_count=cpus) * width <= max(
                    cpus, width
                )

    def test_invalid_pool_width_raises(self):
        with pytest.raises(ValueError):
            per_job_worker_budget(0)
