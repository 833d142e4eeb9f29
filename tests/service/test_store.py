"""Tests for the persistent RunStore: round-trips, eviction, recovery."""

from __future__ import annotations

import json

import pytest

from repro.engine.cache import CachedRun, ResultCache
from repro.engine.registry import AlgorithmOutput, algorithm_registry
from repro.engine.sharding import merge_shard_outputs, qi_prefix_shards
from repro.privacy.spec import EntropyLDiversity, FrequencyLDiversity
from repro.service.store import RunStore, _encode_cell, _encode_run
from tests.conftest import merged_with_empty_groups


def _cached_run(table, algorithm: str = "TP", l: int = 2) -> CachedRun:
    output = algorithm_registry.get(algorithm).runner(table, l)
    return CachedRun(output=output, anonymize_seconds=0.25, shard_sizes=(len(table),))


def _key(table, algorithm: str = "TP", l: int = 2, **kwargs):
    return ResultCache.key(table.fingerprint(), algorithm, l, **kwargs)


class TestRoundTrip:
    def test_put_get_round_trip(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        run = _cached_run(hospital)
        key = _key(hospital)
        store.put(key, run)
        restored = store.get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows
        assert restored.output.generalized.sa_values == run.output.generalized.sa_values
        assert restored.anonymize_seconds == run.anonymize_seconds
        assert restored.shard_sizes == run.shard_sizes
        assert restored.output.phase_reached == run.output.phase_reached

    def test_round_trip_survives_process_restart(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        key = _key(hospital)
        RunStore(path).put(key, run)
        # A fresh instance simulates a fresh process reading the same file.
        fresh = RunStore(path)
        restored = fresh.get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows
        assert fresh.stats()["hits"] == 1

    def test_subdomain_cells_round_trip(self, hospital, tmp_path):
        """Frozenset cells (TDS / Mondrian outputs) survive the JSON codec."""
        store = RunStore(tmp_path / "runs.jsonl")
        run = _cached_run(hospital, algorithm="Mondrian")
        key = _key(hospital, algorithm="Mondrian")
        store.put(key, run)
        restored = RunStore(store.path).get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows

    def test_miss_counts(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        assert store.get(_key(hospital), hospital) is None
        assert store.stats()["misses"] == 1


class TestEviction:
    def test_max_entries_evicts_oldest(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path, max_entries=2)
        run = _cached_run(hospital)
        keys = [_key(hospital, l=l) for l in (2, 3, 4)]
        for key in keys:
            store.put(key, run)
        assert len(store) == 2
        assert keys[0] not in store
        assert keys[1] in store and keys[2] in store
        # The file was compacted to the live entries.
        with open(path) as handle:
            assert sum(1 for _line in handle) == 2

    def test_reopen_applies_cap(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        big = RunStore(path, max_entries=16)
        run = _cached_run(hospital)
        for l in (2, 3, 4, 5):
            big.put(_key(hospital, l=l), run)
        small = RunStore(path, max_entries=2)
        assert len(small) == 2
        assert small.get(_key(hospital, l=5), hospital) is not None


class TestRecovery:
    def test_corrupt_lines_are_skipped_and_compacted(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        run = _cached_run(hospital)
        store.put(_key(hospital, l=2), run)
        store.put(_key(hospital, l=3), run)
        # Corrupt the file: garbage line + torn (truncated) trailing record.
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json at all")
        lines.append('{"key": ["only", "three", 3]}')
        lines.append(lines[0][: len(lines[0]) // 2])
        path.write_text("\n".join(lines) + "\n")

        recovered = RunStore(path)
        assert len(recovered) == 2
        assert recovered.recovered == 3
        assert recovered.get(_key(hospital, l=2), hospital) is not None
        # Recovery compacts: a subsequent reopen sees only clean records.
        clean = RunStore(path)
        assert clean.recovered == 0
        assert len(clean) == 2

    def test_row_count_mismatch_treated_as_stale(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        key = _key(hospital)
        store.put(key, _cached_run(hospital))
        shrunk = hospital.subset(range(len(hospital) - 1))
        assert store.get(key, shrunk) is None
        assert key not in store  # dropped, not replayed against the wrong table

    def test_empty_and_blank_lines_tolerated(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n\n")
        store = RunStore(path)
        assert len(store) == 0
        store.put(_key(hospital), _cached_run(hospital))
        assert RunStore(path).get(_key(hospital), hospital) is not None


class TestReadThroughCache:
    def test_cache_falls_through_to_store(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        run = _cached_run(hospital)
        key = _key(hospital)
        RunStore(path).put(key, run)

        cache = ResultCache(store=RunStore(path))
        entry, tier = cache.lookup(key, hospital)
        assert entry is not None and tier == "store"
        assert cache.stats()["store_hits"] == 1
        # The hit was promoted: next lookup answers from memory.
        entry, tier = cache.lookup(key, hospital)
        assert tier == "memory"

    def test_cache_writes_through(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        cache = ResultCache(store=RunStore(path))
        key = _key(hospital)
        cache.put(key, _cached_run(hospital))
        assert RunStore(path).get(key, hospital) is not None

    def test_without_table_store_tier_is_skipped(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).put(_key(hospital), _cached_run(hospital))
        cache = ResultCache(store=RunStore(path))
        assert cache.get(_key(hospital)) is None  # no table to rehydrate against


class TestValidation:
    def test_rejects_bad_max_entries(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path / "runs.jsonl", max_entries=0)

    def test_records_are_compact_json(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).put(_key(hospital), _cached_run(hospital))
        record = json.loads(path.read_text().splitlines()[0])
        assert set(record) >= {"key", "n", "group_cells", "group_ids", "anonymize_seconds"}
        assert record["n"] == len(hospital)


def _encode_run_by_rows(key, run: CachedRun) -> dict:
    """The per-row encoder the group-form encoder replaced (test oracle)."""
    generalized = run.output.generalized
    dense: dict[int, int] = {}
    group_cells: list[list[object]] = []
    renumbered: list[int] = []
    for row, group_id in enumerate(generalized.group_ids):
        index = dense.get(group_id)
        if index is None:
            index = len(group_cells)
            dense[group_id] = index
            group_cells.append([_encode_cell(cell) for cell in generalized.row_cells(row)])
        renumbered.append(index)
    return {
        "key": list(key),
        "n": len(generalized),
        "group_cells": group_cells,
        "group_ids": renumbered,
        "anonymize_seconds": run.anonymize_seconds,
        "shard_sizes": list(run.shard_sizes),
        "phase_reached": run.output.phase_reached,
        "enforcement_merges": run.enforcement_merges,
    }


def _merged_run(table, algorithm: str, l: int) -> CachedRun:
    shard_rows = qi_prefix_shards(table, 3, l)
    runner = algorithm_registry.get(algorithm).runner
    outputs = [runner(table.subset(rows), l) for rows in shard_rows]
    merged = merge_shard_outputs(table, shard_rows, outputs, l)
    return CachedRun(
        output=AlgorithmOutput(merged),
        anonymize_seconds=0.5,
        shard_sizes=tuple(len(rows) for rows in shard_rows),
    )


class TestGroupFormEncoder:
    """JSONL records from the group form are byte-identical to the per-row
    encoder's, and the encoder never builds per-row cell tuples."""

    @pytest.mark.parametrize(
        "make_run",
        [
            lambda table: _cached_run(table, "TP", 3),
            lambda table: _cached_run(table, "TP+", 3),
            lambda table: _merged_run(table, "TP", 3),
            lambda table: _merged_run(table, "TP+", 3),
            lambda table: CachedRun(
                output=AlgorithmOutput(merged_with_empty_groups(table, 3)),
                anonymize_seconds=0.5,
                shard_sizes=(len(table),),
            ),
        ],
        ids=["TP", "TP+", "merged-TP", "merged-TP+", "merged-empty-groups"],
    )
    def test_records_match_the_row_encoder(self, small_census, make_run):
        run = make_run(small_census)
        generalized = run.output.generalized
        assert generalized.columnar_publish() is not None
        key = _key(small_census, l=3)
        encoded = json.dumps(_encode_run(key, run), separators=(",", ":"))
        assert generalized._cells_rows is None
        expected = json.dumps(_encode_run_by_rows(key, run), separators=(",", ":"))
        assert encoded == expected

    def test_explicit_cells_keep_the_row_encoder(self, hospital):
        run = _cached_run(hospital, algorithm="Mondrian")
        key = _key(hospital, algorithm="Mondrian")
        assert run.output.generalized.columnar_publish() is None
        assert _encode_run(key, run) == _encode_run_by_rows(key, run)


class TestHardening:
    def test_incomplete_record_is_dropped_not_crashed(self, hospital, tmp_path):
        """A JSON-valid record missing timing fields must not crash get()."""
        path = tmp_path / "runs.jsonl"
        key = _key(hospital)
        record = {
            "key": list(key),
            "n": len(hospital),
            "group_cells": [[0] * hospital.dimension],
            "group_ids": [0] * len(hospital),
            # anonymize_seconds / shard_sizes / phase_reached missing
        }
        path.write_text(json.dumps(record) + "\n")
        store = RunStore(path)
        assert len(store) == 0  # rejected at parse time
        assert store.get(key, hospital) is None

    def test_undecodable_cell_is_dropped_not_crashed(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        key = _key(hospital)
        record = {
            "key": list(key),
            "n": len(hospital),
            "group_cells": [[None] * hospital.dimension],  # not int/"*"/{"s":[...]}
            "group_ids": [0] * len(hospital),
            "anonymize_seconds": 0.1,
            "shard_sizes": [len(hospital)],
            "phase_reached": 1,
        }
        path.write_text(json.dumps(record) + "\n")
        store = RunStore(path)
        assert store.get(key, hospital) is None
        assert key not in store
        assert store.recovered == 1

    def test_wrong_cell_width_is_dropped(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        key = _key(hospital)
        record = {
            "key": list(key),
            "n": len(hospital),
            "group_cells": [[0]],  # too narrow for the hospital schema
            "group_ids": [0] * len(hospital),
            "anonymize_seconds": 0.1,
            "shard_sizes": [len(hospital)],
            "phase_reached": None,
        }
        path.write_text(json.dumps(record) + "\n")
        assert RunStore(path).get(key, hospital) is None

    def test_compaction_preserves_concurrent_appends(self, hospital, tmp_path):
        """Records appended by another process survive this process's compaction."""
        path = tmp_path / "runs.jsonl"
        ours = RunStore(path, max_entries=3)
        run = _cached_run(hospital)
        ours.put(_key(hospital, l=2), run)
        # Another process appends a record after we loaded the file.
        other = RunStore(path, max_entries=3)
        other.put(_key(hospital, l=3), run)
        # Our next put crosses max_entries and triggers compaction.
        ours.put(_key(hospital, l=4), run)
        ours.put(_key(hospital, l=5), run)
        assert len(ours) == 3
        reread = RunStore(path)
        assert reread.get(_key(hospital, l=3), hospital) is not None  # not clobbered


class TestKeyMigration:
    """The key grew a privacy-spec token, then lost its backend element."""

    def test_default_key_carries_the_frequency_token(self, hospital):
        key = _key(hospital, l=3, seed=5)
        assert key == (hospital.fingerprint(), "TP", 3, 1, 5, FrequencyLDiversity(3).token())

    def test_specs_with_equal_l_never_share_a_record(self, hospital, tmp_path):
        # Regression: pre-migration an entropy-checked rerun could replay a
        # frequency-l record computed without the enforcement pass.
        store = RunStore(tmp_path / "runs.jsonl")
        frequency_key = _key(hospital, l=2)
        entropy_key = _key(hospital, l=2, privacy=EntropyLDiversity(2.0))
        assert frequency_key != entropy_key
        store.put(frequency_key, _cached_run(hospital))
        assert store.get(entropy_key, hospital) is None
        assert store.get(frequency_key, hospital) is not None

    def test_spec_separation_survives_process_restart(self, hospital, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).put(_key(hospital, l=2), _cached_run(hospital))
        fresh = RunStore(path)
        assert fresh.get(_key(hospital, l=2, privacy=EntropyLDiversity(2.0)), hospital) is None
        assert fresh.get(_key(hospital, l=2), hospital) is not None

    def test_legacy_key_shapes_are_dropped_on_load(self, hospital, tmp_path):
        # Both legacy shapes carry a backend: (fp, algorithm, l, shards,
        # backend, seed, privacy) and the older (..., backend, seed).  They
        # must be treated as unparseable (recovered + compacted away), never
        # replayed — the older one even has the current key's length.
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.put(_key(hospital, seed=1), _cached_run(hospital))
        store.put(_key(hospital, l=2), _cached_run(hospital))
        current, record = (json.loads(line) for line in path.read_text().splitlines())
        fingerprint, algorithm, l, shards, seed, privacy = record["key"]
        with_backend = [fingerprint, algorithm, l, shards, "reference", seed, privacy]
        pre_privacy = [fingerprint, algorithm, l, shards, "numpy", seed]
        lines = [current] + [
            dict(record, key=key, anonymize_seconds=9.9)
            for key in (with_backend, pre_privacy)
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        fresh = RunStore(path)
        assert fresh.recovered == 2
        assert fresh.keys() == [_key(hospital, seed=1)]
        assert fresh.get(_key(hospital, l=2), hospital) is None
        assert len(path.read_text().splitlines()) == 1  # compacted away
