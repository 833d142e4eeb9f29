"""Tests for the Engine executor: plans, caching, sharded runs."""

from __future__ import annotations

import pytest

from repro.dataset.synthetic import CensusConfig
from repro.engine import (
    AlgorithmRegistry,
    CsvSource,
    Engine,
    ResultCache,
    RunPlan,
    SyntheticSource,
    TableSource,
    suppression_merge_bound,
)
from repro.engine.registry import algorithm_registry
from repro.errors import IneligibleTableError, UnknownEntryError
from repro.privacy import checks, principles
from repro.privacy.spec import (
    AlphaKAnonymity,
    EntropyLDiversity,
    FrequencyLDiversity,
    KAnonymity,
    RecursiveCLDiversity,
    TCloseness,
)


def _plan(source, **fields) -> RunPlan:
    fields.setdefault("algorithm", "TP")
    fields.setdefault("l", 2)
    return RunPlan(source=source, **fields)


def _engine() -> Engine:
    """An engine with an isolated cache (tests must not share hits)."""
    return Engine(cache=ResultCache())


class TestUnshardedRuns:
    def test_run_matches_direct_runner(self, hospital):
        report = _engine().run(_plan(TableSource(hospital, "hospital")))
        direct = algorithm_registry.get("TP").runner(hospital, 2)
        assert report.generalized.cell_rows == direct.generalized.cell_rows
        assert report.label == "hospital"
        assert report.n == len(hospital)
        assert report.d == hospital.dimension
        assert report.shard_sizes == (len(hospital),)
        assert report.verified

    def test_unknown_algorithm_fails_before_loading(self, tmp_path):
        source = CsvSource(str(tmp_path / "absent.csv"), ("Q",), "S")
        with pytest.raises(UnknownEntryError):
            _engine().run(_plan(source, algorithm="nope"))

    def test_unknown_metric_fails_before_loading(self, tmp_path):
        source = CsvSource(str(tmp_path / "absent.csv"), ("Q",), "S")
        with pytest.raises(UnknownEntryError):
            _engine().run(_plan(source, metrics=("nope",)))

    def test_requested_metrics_are_computed(self, hospital):
        report = _engine().run(
            _plan(TableSource(hospital), metrics=("stars", "suppressed", "kl"))
        )
        assert report.metric_values["stars"] == report.generalized.star_count()
        assert report.metric_values["suppressed"] == report.generalized.suppressed_tuple_count()
        assert report.metric_values["kl"] >= 0.0

    def test_ineligible_table_raises(self, hospital):
        with pytest.raises(IneligibleTableError):
            _engine().run(_plan(TableSource(hospital), l=len(hospital) + 1))

    def test_stage_timings_are_separated(self, hospital):
        report = _engine().run(_plan(TableSource(hospital), metrics=("kl",)))
        root = report.trace
        assert [child.name for child in root.children] == [
            "load", "plan", "anonymize", "verify", "metrics",
        ]
        assert all(child.seconds > 0 for child in root.children)
        assert report.anonymize_seconds > 0
        assert report.seconds == root.seconds
        assert sum(child.seconds for child in root.children) <= root.seconds

    def test_chunked_load_equals_plain_load(self, tmp_path, hospital):
        path = str(tmp_path / "hospital.csv")
        hospital.to_csv(path)
        source = CsvSource(path, ("Age", "Gender", "Education"), "Disease")
        plain = _engine().run(_plan(source))
        chunked = _engine().run(_plan(source, chunk_rows=3))
        assert plain.generalized.cell_rows == chunked.generalized.cell_rows

    def test_run_table_convenience(self, hospital):
        report = _engine().run_table(hospital, "TP+", 2)
        assert report.plan.algorithm == "TP+"
        assert report.verified


class TestResultCache:
    def test_second_run_hits_and_replays_identical_output(self, hospital):
        engine = _engine()
        first = engine.run(_plan(TableSource(hospital)))
        second = engine.run(_plan(TableSource(hospital)))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.generalized is first.generalized
        assert second.anonymize_seconds == first.anonymize_seconds
        assert engine.cache.stats()["hits"] == 1

    def test_cache_key_includes_l_algorithm_and_shards(self, small_census):
        engine = _engine()
        source = TableSource(small_census)
        engine.run(_plan(source, l=2))
        assert engine.run(_plan(source, l=3)).cache_hit is False
        assert engine.run(_plan(source, algorithm="Hilbert", l=2)).cache_hit is False
        assert engine.run(_plan(source, l=2, shards=2)).cache_hit is False
        assert engine.run(_plan(source, l=2)).cache_hit is True

    def test_use_cache_false_bypasses(self, hospital):
        engine = _engine()
        engine.run(_plan(TableSource(hospital)))
        report = engine.run(_plan(TableSource(hospital), use_cache=False))
        assert not report.cache_hit

    def test_equal_content_different_instances_share_entries(self, hospital):
        engine = _engine()
        copy = hospital.subset(range(len(hospital)))
        engine.run(_plan(TableSource(hospital)))
        assert engine.run(_plan(TableSource(copy))).cache_hit

    def test_nondeterministic_algorithms_are_not_cached(self, hospital):
        registry = AlgorithmRegistry()
        runner = algorithm_registry.get("TP").runner
        registry.register("Rand", deterministic=False)(runner)
        engine = Engine(algorithms=registry, cache=ResultCache())
        engine.run(_plan(TableSource(hospital), algorithm="Rand"))
        report = engine.run(_plan(TableSource(hospital), algorithm="Rand"))
        assert not report.cache_hit
        assert len(engine.cache) == 0

    def test_lru_bound_evicts(self, hospital):
        engine = Engine(cache=ResultCache(max_entries=1))
        engine.run(_plan(TableSource(hospital), l=2))
        engine.run(_plan(TableSource(hospital), algorithm="Hilbert", l=2))
        assert len(engine.cache) == 1
        assert not engine.run(_plan(TableSource(hospital), l=2)).cache_hit


class TestShardedRuns:
    @pytest.fixture(scope="class")
    def census_source(self):
        # The acceptance-scale workload: n >= 10k rows, 4-QI projection.
        return SyntheticSource(
            "SAL", n=10_000, seed=7, dimension=4, config=CensusConfig.scaled(0.3)
        )

    def test_acceptance_run(self, census_source):
        """Sharded run at n >= 10k with >= 4 shards: verified l-diverse output
        whose suppression matches the unsharded run within the merge bound."""
        engine = _engine()
        l = 4
        unsharded = engine.run(_plan(census_source, l=l, use_cache=False))
        sharded = engine.run(_plan(census_source, l=l, shards=4, use_cache=False))
        assert len(sharded.shard_sizes) >= 4
        assert sharded.n >= 10_000
        assert checks.verify_l_diversity(sharded.generalized, l)
        assert sharded.verified
        stars_delta = abs(
            sharded.generalized.star_count() - unsharded.generalized.star_count()
        )
        tuples_delta = abs(
            sharded.generalized.suppressed_tuple_count()
            - unsharded.generalized.suppressed_tuple_count()
        )
        assert stars_delta <= suppression_merge_bound(4, l, sharded.d)
        assert tuples_delta <= suppression_merge_bound(4, l)

    def test_workers_match_sequential_sharded_run(self, census_source):
        engine = _engine()
        sequential = engine.run(_plan(census_source, l=4, shards=4, use_cache=False))
        parallel = engine.run(
            _plan(census_source, l=4, shards=4, workers=2, use_cache=False)
        )
        assert parallel.generalized.cell_rows == sequential.generalized.cell_rows
        assert parallel.shard_sizes == sequential.shard_sizes

    @pytest.mark.parametrize("algorithm", ["TP", "TP+", "Hilbert", "TDS", "Mondrian"])
    def test_all_registered_algorithms_run_sharded(self, small_census, algorithm):
        report = _engine().run(
            _plan(TableSource(small_census), algorithm=algorithm, l=2, shards=2)
        )
        assert report.verified
        assert len(report.shard_sizes) >= 1

    def test_sharding_refused_without_capability(self, hospital):
        registry = AlgorithmRegistry()
        runner = algorithm_registry.get("TP").runner
        registry.register("NoShard", supports_sharding=False)(runner)
        engine = Engine(algorithms=registry, cache=ResultCache())
        with pytest.raises(ValueError, match="NoShard"):
            engine.run(_plan(TableSource(hospital), algorithm="NoShard", shards=2))

    def test_cached_sharded_replay_keeps_shard_sizes(self, small_census):
        engine = _engine()
        first = engine.run(_plan(TableSource(small_census), shards=2))
        replay = engine.run(_plan(TableSource(small_census), shards=2))
        assert replay.cache_hit
        assert replay.shard_sizes == first.shard_sizes
        assert len(replay.shard_sizes) == 2

    def test_phase_reached_aggregates_over_shards(self, census_source):
        report = _engine().run(_plan(census_source, l=4, shards=4, use_cache=False))
        assert report.phase_reached in (1, 2, 3)


class TestHarnessIntegration:
    def test_run_algorithm_uses_shared_cache(self, hospital):
        from repro.experiments.harness import run_algorithm

        cache = ResultCache()
        first = run_algorithm("TP", hospital, 2, cache=cache)
        second = run_algorithm("TP", hospital, 2, cache=cache)
        assert cache.stats()["hits"] == 1
        assert second.stars == first.stars
        assert second.seconds == first.seconds  # replayed timing, not re-run

    def test_run_suite_parallel_answers_hits_in_parent(self, hospital):
        from repro.experiments.harness import run_suite

        cache = ResultCache()
        sequential = run_suite([("h", hospital)], 2, ["TP", "Hilbert"], cache=cache)
        hits_before = cache.stats()["hits"]
        parallel = run_suite(
            [("h", hospital)], 2, ["TP", "Hilbert"], workers=2, cache=cache
        )
        assert cache.stats()["hits"] == hits_before + 2
        assert [record.stars for record in parallel] == [
            record.stars for record in sequential
        ]

    def test_run_suite_parallel_fills_parent_cache(self, hospital):
        from repro.experiments.harness import run_suite

        cache = ResultCache()
        run_suite([("h", hospital)], 2, ["TP", "Hilbert"], workers=2, cache=cache)
        assert cache.stats()["entries"] == 2  # worker outputs shipped back
        repeat = run_suite([("h", hospital)], 2, ["TP", "Hilbert"], workers=2, cache=cache)
        assert cache.stats()["misses"] == 2  # second sweep is all hits
        assert len(repeat) == 2


class TestCacheKeySeed:
    """Regression: changing the seed must never replay stale runs."""

    def test_seed_is_part_of_the_key(self, hospital):
        engine = _engine()
        engine.run(_plan(TableSource(hospital), seed=0))
        assert not engine.run(_plan(TableSource(hospital), seed=1)).cache_hit
        assert engine.run(_plan(TableSource(hospital), seed=0)).cache_hit


class TestStoreBackedEngine:
    def test_fresh_engine_is_served_from_the_store(self, hospital, tmp_path):
        from repro.service.store import RunStore

        path = tmp_path / "runs"
        first = Engine(cache=ResultCache(store=RunStore(path))).run(
            _plan(TableSource(hospital))
        )
        assert not first.cache_hit
        # Fresh engine + fresh cache + fresh store instance = fresh process.
        replay = Engine(cache=ResultCache(store=RunStore(path))).run(
            _plan(TableSource(hospital))
        )
        assert replay.cache_hit
        assert replay.store_hit
        assert replay.generalized.cell_rows == first.generalized.cell_rows
        assert replay.anonymize_seconds == first.anonymize_seconds

    def test_engine_store_argument_wires_the_cache(self, hospital, tmp_path):
        from repro.service.store import RunStore

        store = RunStore(tmp_path / "runs")
        engine = Engine(store=store)
        engine.run(_plan(TableSource(hospital)))
        assert len(store) == 1

    def test_conflicting_cache_and_store_rejected(self, tmp_path):
        from repro.service.store import RunStore

        store = RunStore(tmp_path / "runs")
        with pytest.raises(ValueError, match="cache"):
            Engine(cache=ResultCache(), store=store)
        # A cache already backed by that store is fine.
        Engine(cache=ResultCache(store=store), store=store)

    def test_report_surfaces_cache_stats(self, hospital):
        engine = _engine()
        first = engine.run(_plan(TableSource(hospital)))
        assert first.cache_stats["misses"] == 1
        second = engine.run(_plan(TableSource(hospital)))
        assert second.cache_stats["memory_hits"] == 1
        assert second.cache_stats["hits"] == 1
        assert not second.store_hit  # memory tier, not the persistent one


class TestPlannerIntegration:
    def test_default_plan_resolves_small_tables_unsharded(self, hospital):
        report = _engine().run(_plan(TableSource(hospital)))
        assert report.decision is not None
        assert report.decision.shards == 1
        assert report.decision.workers == 1
        assert report.shard_sizes == (len(hospital),)

    def test_explicit_shards_override_the_planner(self, small_census):
        report = _engine().run(_plan(TableSource(small_census), shards=2))
        assert report.decision is not None
        assert report.decision.shards == 2
        assert len(report.shard_sizes) == 2

    def test_pinned_planner_is_used(self):
        from repro.service.planner import ExecutionPlanner, PlannerCalibration

        # A calibration so slow that 10k rows justify sharding even without
        # workers (the per-shard log factor dominates the tiny overheads).
        slow = PlannerCalibration(rates={"TP": 1.0}, source="test")
        engine = Engine(cache=ResultCache(), planner=ExecutionPlanner(slow, cpu_count=1))
        source = SyntheticSource(
            "SAL", n=10_000, seed=7, dimension=4, config=CensusConfig.scaled(0.3)
        )
        report = engine.run(_plan(source, l=4))
        assert report.decision.shards > 1
        assert len(report.shard_sizes) > 1
        assert report.verified


class TestPrivacySpecs:
    """The PrivacySpec refactor: spec-targeted runs, bit-identical default
    path, enforcement, and cache-key separation across specs."""

    def test_default_path_is_identical_to_explicit_frequency_spec(self, hospital):
        sugar = _engine().run(_plan(TableSource(hospital), l=2))
        explicit = _engine().run(
            _plan(TableSource(hospital), privacy=FrequencyLDiversity(2))
        )
        assert sugar.generalized.cell_rows == explicit.generalized.cell_rows
        assert sugar.generalized.group_ids == explicit.generalized.group_ids
        assert sugar.privacy == explicit.privacy == FrequencyLDiversity(2)
        assert sugar.enforcement_merges == explicit.enforcement_merges == 0

    def test_entropy_run_end_to_end(self, small_census):
        report = _engine().run(
            _plan(
                TableSource(small_census),
                algorithm="TP+",
                privacy=EntropyLDiversity(3.0),
            )
        )
        assert report.verified
        assert principles.satisfies_entropy_l_diversity(report.generalized, 3.0)
        assert report.privacy == EntropyLDiversity(3.0)

    def test_entropy_run_sharded(self, small_census):
        report = _engine().run(
            _plan(
                TableSource(small_census),
                algorithm="TP",
                privacy=EntropyLDiversity(2.0),
                shards=3,
                workers=1,
            )
        )
        assert len(report.shard_sizes) > 1
        assert report.verified
        assert principles.satisfies_entropy_l_diversity(report.generalized, 2.0)

    def test_strict_recursive_spec_triggers_the_enforcement_pass(self, small_census):
        # c <= 1 is NOT implied by the frequency guarantee the algorithms
        # produce, so the post-anonymization repair must merge groups.
        spec = RecursiveCLDiversity(0.5, 2)
        report = _engine().run(
            _plan(TableSource(small_census), algorithm="TP", privacy=spec)
        )
        assert report.enforcement_merges > 0
        assert report.verified
        assert principles.satisfies_recursive_cl_diversity(report.generalized, 0.5, 2)
        assert sorted(report.generalized.sa_values) == sorted(small_census.sa_values)

    def test_alpha_k_run(self, small_census):
        report = _engine().run(
            _plan(TableSource(small_census), privacy=AlphaKAnonymity(0.25, 4))
        )
        assert report.verified
        assert principles.satisfies_alpha_k_anonymity(report.generalized, 0.25, 4)

    def test_k_anonymity_is_sa_blind(self, hospital):
        # A single-valued SA column is never frequency-2-eligible, but
        # k-anonymity must still anonymize it (SA plays no role).
        from repro.dataset.table import Table

        skewed = Table(hospital.schema, hospital.qi_rows, [0] * len(hospital))
        with pytest.raises(IneligibleTableError):
            _engine().run(_plan(TableSource(skewed), l=2))
        report = _engine().run(_plan(TableSource(skewed), privacy=KAnonymity(3)))
        assert report.verified
        assert report.generalized.is_k_anonymous(3)
        assert set(report.generalized.sa_values) == {0}  # SA column preserved

    def test_check_only_spec_is_rejected(self, hospital):
        with pytest.raises(ValueError, match="check-only"):
            _engine().run(_plan(TableSource(hospital), privacy=TCloseness(0.3)))

    def test_ineligible_spec_raises(self, hospital):
        # Whole-table SA entropy bounds the achievable entropy threshold.
        with pytest.raises(IneligibleTableError):
            _engine().run(
                _plan(TableSource(hospital), privacy=EntropyLDiversity(1000.0))
            )

    def test_cache_keys_distinguish_specs_with_equal_l(self, small_census):
        engine = _engine()
        source = TableSource(small_census)
        engine.run(_plan(source, l=2))
        entropy = engine.run(_plan(source, privacy=EntropyLDiversity(2.0)))
        assert not entropy.cache_hit  # would have replayed pre-refactor
        recursive = engine.run(_plan(source, privacy=RecursiveCLDiversity(2.0, 2)))
        assert not recursive.cache_hit
        assert engine.run(_plan(source, l=2)).cache_hit
        assert engine.run(_plan(source, privacy=EntropyLDiversity(2.0))).cache_hit

    def test_spec_dict_encoding_accepted_by_runplan(self, hospital):
        report = _engine().run(
            _plan(TableSource(hospital), privacy={"kind": "k-anonymity", "k": 2})
        )
        assert report.privacy == KAnonymity(2)
        assert report.generalized.is_k_anonymous(2)

    def test_spec_merge_bound_uses_the_group_floor(self):
        assert suppression_merge_bound(4, KAnonymity(5), 2) == 2 * 3 * 5 * 2
        assert suppression_merge_bound(4, EntropyLDiversity(2.5)) == 2 * 3 * 3
        assert suppression_merge_bound(4, 3, 2) == suppression_merge_bound(
            4, FrequencyLDiversity(3), 2
        )

    def test_implied_spec_violation_fails_verification_not_repaired(self, hospital):
        # A broken algorithm whose output violates an implied spec must
        # surface as VerificationError — the enforcement pass must not
        # silently merge the evidence away.
        from repro.dataset.generalized import GeneralizedTable, Partition
        from repro.engine.registry import AlgorithmOutput
        from repro.errors import VerificationError

        registry = AlgorithmRegistry()

        @registry.register("Broken")
        def _broken(table, l):
            # one row per group: trivially violates any diversity/size spec
            partition = Partition([[index] for index in range(len(table))], len(table))
            return AlgorithmOutput(GeneralizedTable.from_partition(table, partition))

        engine = Engine(algorithms=registry, cache=ResultCache())
        for privacy in (None, EntropyLDiversity(2.0), KAnonymity(2)):
            with pytest.raises(VerificationError):
                engine.run(
                    _plan(
                        TableSource(hospital), algorithm="Broken", l=2,
                        privacy=privacy, use_cache=False,
                    )
                )

    def test_cached_hits_replay_the_enforcement_merge_count(self, small_census):
        engine = _engine()
        spec = RecursiveCLDiversity(0.5, 2)
        first = engine.run(_plan(TableSource(small_census), privacy=spec))
        assert first.enforcement_merges > 0
        replay = engine.run(_plan(TableSource(small_census), privacy=spec))
        assert replay.cache_hit
        assert replay.enforcement_merges == first.enforcement_merges

    def test_cache_key_ignores_the_l_display_hint_under_an_explicit_spec(
        self, hospital
    ):
        # plan.l is only a display hint once privacy is explicit; different
        # hints (CLI vs HTTP defaults) must share one cache entry.
        engine = _engine()
        spec = KAnonymity(2)
        engine.run(_plan(TableSource(hospital), l=1, privacy=spec))
        hinted = engine.run(_plan(TableSource(hospital), l=2, privacy=spec))
        assert hinted.cache_hit
