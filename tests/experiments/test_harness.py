"""Tests for the experiment harness."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dataset.generalized import GeneralizedTable, Partition
from repro.engine.cache import ResultCache
from repro.engine.core import Engine, RunPlan
from repro.engine.registry import AlgorithmOutput, algorithm_registry
from repro.engine.sources import TableSource
from repro.errors import VerificationError
from repro.experiments.harness import (
    ALGORITHMS,
    RunRecord,
    average_by,
    format_records,
    record_from_report,
    run_algorithm,
    run_suite,
)
from repro.service.store import RunStore


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


class TestEngineRunPath:
    def test_suite_matches_single_runs(self, hospital):
        """Records come back tables outer, algorithms inner, each equal to
        its own run except for the timings."""
        records = run_suite([("h1", hospital), ("h2", hospital)], 2, ["TP", "Hilbert"])
        singles = [
            run_algorithm(name, hospital, 2, dataset=label)
            for label in ("h1", "h2")
            for name in ("TP", "Hilbert")
        ]
        untimed = lambda record: replace(  # noqa: E731
            record, seconds=0.0, load_seconds=0.0, metrics_seconds=0.0
        )
        assert [untimed(record) for record in records] == [
            untimed(record) for record in singles
        ]

    def test_every_run_is_verified(self, hospital, monkeypatch):
        """A runner that publishes a table violating l-diversity must fail
        the run, not yield a record."""

        def unsuppressed(table, l):
            partition = Partition.trusted([[row] for row in range(len(table))], len(table))
            return AlgorithmOutput(GeneralizedTable.from_partition(table, partition))

        info = algorithm_registry.get("TP")
        monkeypatch.setitem(algorithm_registry._entries, "TP", replace(info, runner=unsuppressed))
        with pytest.raises(VerificationError):
            run_algorithm("TP", hospital, 2, cache=ResultCache())

    def test_repeated_suite_is_replayed_from_the_cache(self, hospital, tmp_path):
        """A second identical sweep is all store hits and replays the first
        sweep's records, timings included."""
        cache = ResultCache(store=RunStore(tmp_path / "runs"))
        tables = [("h1", hospital), ("h2", hospital)]
        first = run_suite(tables, 2, ["TP", "Hilbert"], cache=cache)
        misses = cache.misses
        second = run_suite(tables, 2, ["TP", "Hilbert"], cache=cache)
        assert cache.misses == misses
        assert cache.hits == 4 + 2  # h2 already hit h1's entries
        assert [(r.stars, r.seconds) for r in second] == [(r.stars, r.seconds) for r in first]

    def test_suite_without_a_cache_computes_every_run(self, hospital, monkeypatch):
        info = algorithm_registry.get("TP")
        calls = []

        def counted(table, l):
            calls.append(l)
            return info.runner(table, l)

        monkeypatch.setitem(algorithm_registry._entries, "TP", replace(info, runner=counted))
        tables = [("h1", hospital), ("h2", hospital)]
        first = run_suite(tables, 2, ["TP"])
        second = run_suite(tables, 2, ["TP"])
        assert len(calls) == 4
        assert [r.stars for r in second] == [r.stars for r in first]

    def test_cache_hit_still_computes_requested_metrics(self, hospital, tmp_path):
        """KL is computed per request, so a run cached without it still
        reports it when a later request asks."""
        cache = ResultCache(store=RunStore(tmp_path / "runs"))
        plain = run_algorithm("TP+", hospital, 2, cache=cache)
        with_kl = run_algorithm("TP+", hospital, 2, with_kl=True, cache=cache)
        assert cache.hits == 1
        assert plain.kl is None
        assert with_kl.kl is not None and with_kl.kl >= 0
        assert with_kl.stars == plain.stars

    def test_record_from_report_defaults_to_the_source_label(self, hospital):
        plan = RunPlan(TableSource(hospital, name="ward"), "TP", 2, shards=1, workers=1)
        report = Engine(cache=ResultCache()).run(plan)
        record = record_from_report(report)
        assert record.dataset == "ward"
        assert (record.algorithm, record.l, record.n, record.d) == ("TP", 2, 10, 3)
        assert record.seconds == report.anonymize_seconds
        assert record_from_report(report, dataset="other").dataset == "other"
