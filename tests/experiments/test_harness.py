"""Tests for the experiment harness."""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    ALGORITHMS,
    RunRecord,
    average_by,
    format_records,
    run_algorithm,
    run_suite,
)


class TestRunAlgorithm:
    def test_known_algorithms_registered(self):
        assert set(ALGORITHMS) == {"TP", "TP+", "Hilbert", "TDS", "Mondrian"}

    def test_unknown_algorithm_raises(self, hospital):
        with pytest.raises(KeyError):
            run_algorithm("nope", hospital, 2)

    @pytest.mark.parametrize("name", ["TP", "TP+", "Hilbert", "TDS", "Mondrian"])
    def test_each_algorithm_produces_a_record(self, hospital, name):
        record = run_algorithm(name, hospital, 2, dataset="hospital")
        assert record.algorithm == name
        assert record.dataset == "hospital"
        assert record.l == 2
        assert record.d == 3
        assert record.n == 10
        assert record.seconds >= 0
        assert record.groups >= 1
        assert record.kl is None

    def test_tp_record_reports_phase(self, hospital):
        record = run_algorithm("TP", hospital, 2)
        assert record.phase_reached == 1
        assert record.stars == 8

    def test_kl_flag(self, hospital):
        record = run_algorithm("TP+", hospital, 2, with_kl=True)
        assert record.kl is not None
        assert record.kl >= 0


class TestSuiteAndAggregation:
    def test_run_suite(self, hospital):
        records = run_suite([("h1", hospital), ("h2", hospital)], 2, ["TP", "Hilbert"])
        assert len(records) == 4
        assert {record.dataset for record in records} == {"h1", "h2"}

    def test_average_by_algorithm(self, hospital):
        records = run_suite([("h1", hospital), ("h2", hospital)], 2, ["TP", "Hilbert"])
        averages = average_by(records, "stars")
        assert averages[("TP",)] == 8.0
        assert ("Hilbert",) in averages

    def test_average_by_skips_missing_metric(self):
        records = [
            RunRecord("TP", "x", 2, 3, 10, 8, 4, 0.1, 3, kl=None),
            RunRecord("TP", "y", 2, 3, 10, 6, 3, 0.1, 3, kl=1.5),
        ]
        averages = average_by(records, "kl")
        assert averages[("TP",)] == 1.5

    def test_format_records(self, hospital):
        records = run_suite([("hospital", hospital)], 2, ["TP"])
        text = format_records(records)
        assert "algorithm" in text
        assert "TP" in text
        assert "hospital" in text

    def test_format_records_empty(self):
        assert "algorithm" in format_records([])


class TestParallelSuite:
    def test_workers_produce_same_records(self, hospital):
        sequential = run_suite([("h1", hospital), ("h2", hospital)], 2, ["TP", "Hilbert"])
        parallel = run_suite(
            [("h1", hospital), ("h2", hospital)], 2, ["TP", "Hilbert"], workers=2
        )
        key = lambda record: (  # noqa: E731 - everything except the timing
            record.algorithm,
            record.dataset,
            record.l,
            record.d,
            record.n,
            record.stars,
            record.suppressed_tuples,
            record.groups,
            record.phase_reached,
            record.kl,
        )
        assert [key(record) for record in parallel] == [key(record) for record in sequential]

    def test_workers_one_is_sequential(self, hospital):
        records = run_suite([("h", hospital)], 2, ["TP"], workers=1)
        assert len(records) == 1


class TestCacheSummary:
    def test_summary_reports_both_tiers(self, hospital, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.experiments.harness import cache_summary, run_algorithm
        from repro.service.store import RunStore

        path = tmp_path / "runs"
        warm = ResultCache(store=RunStore(path))
        run_algorithm("TP", hospital, 2, cache=warm)  # miss; persisted
        # Fresh cache over the same store file: the hit must come from the
        # persistent tier and the summary line must say so.
        cold = ResultCache(store=RunStore(path))
        run_algorithm("TP", hospital, 2, cache=cold)
        summary = cache_summary(cold)
        assert "1 store hits" in summary
        assert "0 memory hits" in summary
        assert "persisted" in summary

    def test_summary_defaults_to_the_process_cache(self):
        from repro.experiments.harness import cache_summary

        assert cache_summary().startswith("run cache:")


class TestAutoWorkers:
    def test_default_workers_resolve_via_planner(self, hospital):
        from repro.experiments.harness import run_suite

        # workers=None must resolve (planner says sequential at this scale)
        # and produce the same records as an explicit sequential run.
        auto = run_suite([("h", hospital)], 2, ["TP"])
        explicit = run_suite([("h", hospital)], 2, ["TP"], workers=1)
        assert [record.stars for record in auto] == [record.stars for record in explicit]
