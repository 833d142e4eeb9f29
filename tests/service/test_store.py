"""Tests for the persistent RunStore: round-trips, eviction, recovery, races."""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.examples import hospital_microdata
from repro.dataset.generalized import STAR
from repro.engine.cache import CachedRun, ResultCache
from repro.engine.columnstore import ResultArtifact, is_temp
from repro.engine.core import Engine
from repro.engine.registry import AlgorithmOutput, algorithm_registry, metric_registry
from repro.engine.sharding import merge_shard_outputs, qi_prefix_shards
from repro.privacy.spec import EntropyLDiversity, FrequencyLDiversity
from repro.server.jobspec import build_source
from repro.server.pool import execute_job
from repro.service.store import RunStore
from repro.service.workspace import Workspace
from tests.conftest import merged_with_empty_groups


def _cached_run(table, algorithm: str = "TP", l: int = 2) -> CachedRun:
    output = algorithm_registry.get(algorithm).runner(table, l)
    return CachedRun(output=output, anonymize_seconds=0.25, shard_sizes=(len(table),))


def _key(table, algorithm: str = "TP", l: int = 2, shards: int = 1, seed: int = 0, privacy=None):
    privacy = privacy if privacy is not None else FrequencyLDiversity(l)
    return ResultCache.key(table.fingerprint(), algorithm, l, shards, seed, privacy)


def _record_dirs(path: Path) -> list[Path]:
    return [entry for entry in path.iterdir() if not is_temp(entry.name)]


def _temporaries(path: Path) -> list[Path]:
    return [entry for entry in path.iterdir() if is_temp(entry.name)]


def _set_age(store: RunStore, key, seconds_ago: float) -> None:
    stamp = time.time() - seconds_ago
    os.utime(store._record_dir(key) / "meta.json", (stamp, stamp))


class TestRoundTrip:
    def test_put_get_round_trip(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs")
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
        path = tmp_path / "runs"
        run = _cached_run(hospital)
        key = _key(hospital)
        RunStore(path).put(key, run)
        # A fresh instance simulates a fresh process reading the same directory.
        fresh = RunStore(path)
        restored = fresh.get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows
        assert fresh.stats()["hits"] == 1

    def test_subdomain_cells_round_trip(self, hospital, tmp_path):
        """Frozenset cells (TDS / Mondrian outputs) survive the record format."""
        store = RunStore(tmp_path / "runs")
        run = _cached_run(hospital, algorithm="Mondrian")
        key = _key(hospital, algorithm="Mondrian")
        store.put(key, run)
        restored = RunStore(store.path).get(key, hospital)
        assert restored is not None
        assert restored.output.generalized.cell_rows == run.output.generalized.cell_rows

    def test_miss_counts(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs")
        assert store.get(_key(hospital), hospital) is None
        assert store.stats()["misses"] == 1


class TestEviction:
    def test_max_entries_evicts_oldest(self, hospital, tmp_path):
        path = tmp_path / "runs"
        store = RunStore(path, max_entries=2)
        run = _cached_run(hospital)
        keys = [_key(hospital, l=l) for l in (2, 3, 4)]
        for age, key in zip((30, 20), keys):
            store.put(key, run)
            _set_age(store, key, age)
        store.put(keys[2], run)
        assert len(store) == 2
        assert keys[0] not in store
        assert keys[1] in store and keys[2] in store
        assert len(_record_dirs(path)) == 2

    def test_a_hit_refreshes_recency(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs", max_entries=2)
        run = _cached_run(hospital)
        keys = [_key(hospital, l=l) for l in (2, 3, 4)]
        for age, key in zip((30, 20), keys):
            store.put(key, run)
            _set_age(store, key, age)
        assert store.get(keys[0], hospital) is not None  # now the newest
        store.put(keys[2], run)
        assert set(store.keys()) == {keys[0], keys[2]}

    def test_next_put_applies_a_smaller_cap(self, hospital, tmp_path):
        path = tmp_path / "runs"
        big = RunStore(path, max_entries=16)
        run = _cached_run(hospital)
        for age, l in zip((40, 30, 20, 10), (2, 3, 4, 5)):
            big.put(_key(hospital, l=l), run)
            _set_age(big, _key(hospital, l=l), age)
        small = RunStore(path, max_entries=2)
        assert len(small) == 4  # opening reads nothing
        small.put(_key(hospital, l=6), run)
        assert len(small) == 2
        assert small.get(_key(hospital, l=5), hospital) is not None
        assert small.get(_key(hospital, l=6), hospital) is not None


class TestRecovery:
    def test_row_count_mismatch_treated_as_stale(self, hospital, tmp_path):
        store = RunStore(tmp_path / "runs")
        key = _key(hospital)
        store.put(key, _cached_run(hospital))
        shrunk = hospital.subset(range(len(hospital) - 1))
        assert store.get(key, shrunk) is None
        assert key not in store  # dropped, not replayed against the wrong table
        assert store.recovered == 1


@functools.cache
def _base_runs() -> dict:
    table = hospital_microdata()
    return {
        algorithm: (table, _key(table, algorithm), _cached_run(table, algorithm))
        for algorithm in ("TP", "Mondrian")
    }


def _rewrite_array(record: Path, name: str, change) -> None:
    array = np.load(record / name)
    np.save(record / name, change(array))


def _rewrite_meta(record: Path, change) -> None:
    meta = json.loads((record / "meta.json").read_text())
    change(meta)
    (record / "meta.json").write_text(json.dumps(meta))


FILES = ["meta.json", "rep_codes.npy", "rep_star.npy", "group_of.npy", "sa_codes.npy"]


def _missing_file(record, table, data):
    name = data.draw(st.sampled_from(FILES))
    (record / name).unlink()


def _truncated_file(record, table, data):
    name = data.draw(st.sampled_from(FILES))
    content = (record / name).read_bytes()
    (record / name).write_bytes(content[: data.draw(st.integers(0, len(content) - 1))])


def _bad_json(record, table, data):
    text = data.draw(st.sampled_from(["", "[", "{not json", "[1, 2]", "null"]))
    (record / "meta.json").write_text(text)


def _missing_field(record, table, data):
    field = data.draw(st.sampled_from(
        ["format", "version", "key", "n", "anonymize_seconds", "shard_sizes",
         "phase_reached", "enforcement_merges", "subdomains", "g", "header",
         "qi_tables", "sa_table"]
    ))
    _rewrite_meta(record, lambda meta: meta.pop(field))


def _wrong_key_type(record, table, data):
    position = data.draw(st.integers(0, 5))

    def change(meta):
        part = meta["key"][position]
        if isinstance(part, str):
            meta["key"][position] = data.draw(st.one_of(st.integers(), st.none()))
        else:
            meta["key"][position] = data.draw(
                st.one_of(st.booleans(), st.just(float(part)), st.just(str(part)))
            )

    _rewrite_meta(record, change)


def _wrong_key_length(record, table, data):
    def change(meta):
        fingerprint, algorithm, l, shards, seed, privacy = meta["key"]
        meta["key"] = data.draw(st.sampled_from([
            [fingerprint, algorithm, l, shards, "numpy", seed, privacy],  # with a backend
            [fingerprint, algorithm, l, shards, seed],
            meta["key"] + [0],
        ]))

    _rewrite_meta(record, change)


def _wrong_shape(record, table, data):
    name, change = data.draw(st.sampled_from([
        ("rep_codes.npy", lambda array: array[:, :-1]),
        ("rep_codes.npy", lambda array: array.reshape(-1)),
        ("rep_star.npy", lambda array: array[:-1]),
        ("group_of.npy", lambda array: array[:-1]),
        ("group_of.npy", lambda array: np.concatenate([array, array[:1]])),
        ("sa_codes.npy", lambda array: array[:-1]),
    ]))
    _rewrite_array(record, name, change)


def _wrong_dtype(record, table, data):
    name, dtype = data.draw(st.sampled_from([
        ("rep_codes.npy", np.float64), ("rep_star.npy", np.int8), ("group_of.npy", np.float64),
    ]))
    _rewrite_array(record, name, lambda array: array.astype(dtype))


def _group_out_of_range(record, table, data):
    g = np.load(record / "rep_codes.npy").shape[0]
    row = data.draw(st.integers(0, len(table) - 1))
    value = data.draw(st.one_of(st.integers(g, g + 100), st.integers(-100, -1)))

    def change(array):
        array[row] = value
        return array

    _rewrite_array(record, "group_of.npy", change)


def _n_mismatch(record, table, data):
    delta = data.draw(st.integers(-5, 5).filter(bool))
    _rewrite_meta(record, lambda meta: meta.update(n=meta["n"] + delta))


def _shard_sizes_mismatch(record, table, data):
    """A legacy record (shard sizes ``[]``) or one whose shard sizes do not
    sum to ``n``."""
    sizes = data.draw(st.sampled_from([[], [len(table) - 1], [len(table), 1]]))
    _rewrite_meta(record, lambda meta: meta.update(shard_sizes=sizes))


def _out_of_domain_code(record, table, data):
    g, d = np.load(record / "rep_codes.npy").shape
    group, column = data.draw(st.integers(0, g - 1)), data.draw(st.integers(0, d - 1))
    # Codes past the domain index the column's sub-domain string-table entries.
    size = len(json.loads((record / "meta.json").read_text())["qi_tables"][column])
    code = data.draw(st.one_of(st.integers(size, size + 100), st.integers(-100, -1)))
    codes, star = np.load(record / "rep_codes.npy"), np.load(record / "rep_star.npy")
    codes[group, column], star[group, column] = code, False
    np.save(record / "rep_codes.npy", codes)
    np.save(record / "rep_star.npy", star)
    # An explicit-cells record keeps its sub-domain codes in the meta.
    _rewrite_meta(record, lambda meta: [
        cell.append(code) for cells in meta["subdomains"] for cell in cells
    ])


CORRUPTIONS = [
    _missing_file, _truncated_file, _bad_json, _missing_field, _wrong_key_type,
    _wrong_key_length, _wrong_shape, _wrong_dtype, _group_out_of_range,
    _n_mismatch, _shard_sizes_mismatch, _out_of_domain_code,
]


class TestCorruptRecords:
    @settings(max_examples=60, deadline=None)
    @given(
        algorithm=st.sampled_from(["TP", "Mondrian"]),
        corrupt=st.sampled_from(CORRUPTIONS),
        data=st.data(),
    )
    def test_a_corrupt_record_is_a_recovered_miss(self, algorithm, corrupt, data):
        """One damaged file of a valid record never raises out of the store:
        the record is a counted ``recovered`` miss whose directory is gone,
        and the next put publishes it again."""
        table, key, run = _base_runs()[algorithm]
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "runs"
            RunStore(path).put(key, run)
            (record,) = _record_dirs(path)
            corrupt(record, table, data)

            store = RunStore(path)
            assert len(store) == 1
            assert store.get(key, table) is None
            assert store.recovered == 1 and store.misses == 1
            assert not record.exists()
            assert store.keys() == [] and len(store) == 0
            store.put(key, run)
            assert store.get(key, table) is not None

    def test_keys_drop_malformed_and_misplaced_records(self, hospital, tmp_path):
        path = tmp_path / "runs"
        store = RunStore(path)
        run = _cached_run(hospital)
        for l in (2, 3, 4):
            store.put(_key(hospital, l=l), run)
        _rewrite_meta(store._record_dir(_key(hospital, l=2)), lambda meta: meta.update(key=7))
        # A valid key in the wrong directory (a copied or renamed record).
        store._record_dir(_key(hospital, l=3)).rename(path / ("0" * 32))
        fresh = RunStore(path)
        assert fresh.keys() == [_key(hospital, l=4)]
        assert fresh.recovered == 2
        assert len(_record_dirs(path)) == 1


def _publish_then_crash(path: str) -> None:
    """Child process: write a record's temp directory, die before the rename."""
    table = hospital_microdata()
    os.replace = lambda *_args: os._exit(0)
    RunStore(path).put(_key(table), _cached_run(table))


def _race_puts(path: str, index: int, barrier) -> None:
    table = hospital_microdata()
    run = _cached_run(table)
    store = RunStore(path)
    barrier.wait(timeout=60)
    for l in (2, 3, 4, 5):
        store.put(_key(table, l=l), run)  # shared keys
        store.put(_key(table, l=l, seed=100 + index), run)  # distinct keys


class TestCrashAndRace:
    """Publish-by-rename replaces the JSONL append/compaction cases."""

    def test_crash_before_rename_leaves_no_record(self, hospital, tmp_path):
        path = tmp_path / "runs"
        child = multiprocessing.get_context("spawn").Process(
            target=_publish_then_crash, args=(str(path),)
        )
        child.start()
        child.join(timeout=120)
        assert not child.is_alive() and child.exitcode == 0
        (stale,) = _temporaries(path)
        assert {entry.name for entry in stale.iterdir()} >= {"meta.json", "group_of.npy"}

        store = RunStore(path)
        assert len(store) == 0
        assert store.get(_key(hospital), hospital) is None
        assert store.recovered == 0
        store.put(_key(hospital), _cached_run(hospital))  # the writer is dead
        assert store.get(_key(hospital), hospital) is not None
        assert _temporaries(path) == []

    def test_a_live_writers_temp_directory_is_left_alone(self, hospital, tmp_path):
        path = tmp_path / "runs"
        store = RunStore(path)
        live = f".{'0' * 32}.tmp-{os.getpid()}-live"
        (path / live).mkdir()  # a writer still mid-publish
        store.put(_key(hospital), _cached_run(hospital))
        assert [entry.name for entry in _temporaries(path)] == [live]

    def test_racing_writers_publish_every_key(self, hospital, tmp_path):
        path = tmp_path / "runs"
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        writers = [
            context.Process(target=_race_puts, args=(str(path), index, barrier))
            for index in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert not writer.is_alive() and writer.exitcode == 0
        store = RunStore(path)
        keys = [_key(hospital, l=l) for l in (2, 3, 4, 5)] + [
            _key(hospital, l=l, seed=100 + index) for l in (2, 3, 4, 5) for index in range(2)
        ]
        assert all(store.get(key, hospital) is not None for key in keys)
        assert store.recovered == 0
        assert len(store) == len(keys)
        assert _temporaries(path) == []


class TestOpenTime:
    """Opening the store reads nothing, so it does not grow with its size."""

    CAP_SECONDS = 0.05

    @staticmethod
    def _open_and_hit(root: Path, key, table) -> float:
        timings = []
        for _ in range(7):
            started = time.perf_counter()
            hit = Workspace(root).run_store().get(key, table)
            timings.append(time.perf_counter() - started)
            assert hit is not None
        return min(timings)

    def test_open_plus_hit_is_flat_in_the_record_count(self, tmp_path):
        spec = {
            "algorithm": "TP", "l": 4, "metrics": [], "shards": None, "seed": 0,
            "chunk_rows": None, "include_rows": False, "job_id": "",
            "source": {"kind": "synthetic", "dataset": "SAL", "n": 5_000, "seed": 3,
                       "dimension": 3},
        }
        big, small = tmp_path / "big", tmp_path / "small"
        assert not execute_job(spec, str(big), True)["store_hit"]
        assert not execute_job(spec, str(small), True)["store_hit"]
        store = Workspace(big).run_store()
        (key,) = store.keys()
        table = build_source(spec["source"]).load()
        run = store.get(key, table)
        for seed in range(1, 200):
            store.put(key[:4] + (seed,) + key[5:], run)
        assert len(Workspace(big).run_store()) == 200

        many = self._open_and_hit(big, key, table)
        one = self._open_and_hit(small, key, table)
        assert many < self.CAP_SECONDS
        assert many < 3 * max(one, 0.001)
        served = execute_job(spec, str(big), True)
        assert served["store_hit"]
        assert served["trace"].find("store-open").seconds < self.CAP_SECONDS


class TestReadThroughCache:
    def test_cache_reads_the_store(self, hospital, tmp_path):
        path = tmp_path / "runs"
        run = _cached_run(hospital)
        key = _key(hospital)
        RunStore(path).put(key, run)

        cache = ResultCache(store=RunStore(path))
        entry = cache.lookup(key, hospital)
        assert entry is not None
        assert entry.output.generalized.cell_rows == run.output.generalized.cell_rows
        assert cache.lookup(_key(hospital, l=3), hospital) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cache_writes_through(self, hospital, tmp_path):
        path = tmp_path / "runs"
        cache = ResultCache(store=RunStore(path))
        key = _key(hospital)
        cache.put(key, _cached_run(hospital))
        assert RunStore(path).get(key, hospital) is not None

    def test_cache_without_a_store_misses_and_keeps_nothing(self, hospital):
        cache = ResultCache()
        cache.put(_key(hospital), _cached_run(hospital))
        assert cache.lookup(_key(hospital), hospital) is None
        assert (cache.hits, cache.misses) == (0, 1)


class TestValidation:
    def test_rejects_bad_max_entries(self, tmp_path):
        with pytest.raises(ValueError):
            RunStore(tmp_path / "runs", max_entries=0)

    def test_record_is_one_directory_named_by_its_key(self, hospital, tmp_path):
        path = tmp_path / "runs"
        store = RunStore(path)
        store.put(_key(hospital), _cached_run(hospital))
        (record,) = _record_dirs(path)
        assert record == store._record_dir(_key(hospital))
        assert {entry.name for entry in record.iterdir()} == set(FILES)
        meta = json.loads((record / "meta.json").read_text())
        assert meta["key"] == list(_key(hospital))
        assert meta["n"] == len(hospital) and not any(meta["subdomains"])


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


def _partition(generalized) -> list[list[int]]:
    return list(generalized.groups().values())


class TestGroupFormEncoder:
    """A hit equals its miss: from the group form without building per-row
    cell tuples, and from explicit cells for sub-domain tables."""

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
    def test_group_form_hits_equal_the_miss(self, small_census, make_run, tmp_path):
        run = make_run(small_census)
        generalized = run.output.generalized
        key = _key(small_census, l=3)
        RunStore(tmp_path / "runs").put(key, run)
        assert generalized._cells_rows is None
        hit = RunStore(tmp_path / "runs").get(key, small_census).output.generalized
        for stored, computed in zip(hit.columnar_publish(), generalized.columnar_publish()):
            assert stored.dtype == computed.dtype
            assert np.array_equal(stored, computed)
        assert hit._cells_rows is None
        assert hit.cell_rows == generalized.cell_rows
        assert (
            ResultArtifact.from_generalized(hit).csv_bytes()
            == ResultArtifact.from_generalized(generalized).csv_bytes()
        )

    @pytest.mark.parametrize("algorithm", ["Mondrian", "TDS"])
    def test_explicit_cell_hits_equal_the_miss(self, small_census, algorithm, tmp_path):
        run = _cached_run(small_census, algorithm, 3)
        generalized = run.output.generalized
        assert generalized.columnar_publish() is None
        key = _key(small_census, algorithm, l=3)
        RunStore(tmp_path / "runs").put(key, run)
        hit = RunStore(tmp_path / "runs").get(key, small_census).output.generalized
        assert hit.cell_rows == generalized.cell_rows
        assert _partition(hit) == _partition(generalized)
        assert (
            ResultArtifact.from_generalized(hit).csv_bytes()
            == ResultArtifact.from_generalized(generalized).csv_bytes()
        )


class TestServedHits:
    @pytest.mark.parametrize("algorithm", ["TP+", "Mondrian", "TDS"])
    def test_served_csv_is_identical_for_hit_and_miss(self, algorithm, tmp_path):
        spec = {
            "algorithm": algorithm, "l": 3, "metrics": ["stars"], "shards": None,
            "seed": 0, "chunk_rows": None, "include_rows": True,
            "source": {"kind": "synthetic", "dataset": "SAL", "n": 400, "seed": 5,
                       "dimension": 3},
        }
        miss = execute_job(dict(spec, job_id="job-1"), str(tmp_path), True)
        hit = execute_job(dict(spec, job_id="job-2"), str(tmp_path), True)
        assert not miss["store_hit"] and hit["store_hit"]
        assert (miss["stars"], miss["groups"]) == (hit["stars"], hit["groups"])
        assert (
            ResultArtifact.mmap(miss["result_artifact"]["path"]).csv_bytes()
            == ResultArtifact.mmap(hit["result_artifact"]["path"]).csv_bytes()
        )


class TestHitEqualsMiss:
    @pytest.mark.parametrize("algorithm", ["TP", "TP+", "TDS", "Mondrian"])
    def test_a_hit_reports_what_its_miss_reported(self, algorithm, tmp_path):
        spec = {
            "algorithm": algorithm, "l": 3, "metrics": list(metric_registry.names()),
            "shards": None, "seed": 0, "include_rows": False, "job_id": "",
            "source": {"kind": "synthetic", "dataset": "OCC", "n": 500, "seed": 9,
                       "dimension": 4},
        }
        miss = execute_job(spec, str(tmp_path), True)
        hit = execute_job(spec, str(tmp_path), True)
        assert not miss["store_hit"] and hit["store_hit"]
        fields = ["stars", "suppressed_tuples", "groups", "phase_reached", "metric_values"]
        assert [hit[field] for field in fields] == [miss[field] for field in fields]


class TestKeyMigration:
    """The key grew a privacy-spec token, then lost its backend element; the
    JSONL store became one directory per record."""

    def test_default_key_carries_the_frequency_token(self, hospital, tmp_path):
        # A plan that gives only ``l`` is keyed under the frequency-l token.
        store = RunStore(tmp_path / "runs")
        Engine(cache=ResultCache(store=store)).run_table(
            hospital, "TP", 2, shards=1, workers=1, seed=5
        )
        assert store.keys() == [
            (hospital.fingerprint(), "TP", 2, 1, 5, FrequencyLDiversity(2).token())
        ]

    def test_specs_with_equal_l_never_share_a_record(self, hospital, tmp_path):
        # Regression: pre-migration an entropy-checked rerun could replay a
        # frequency-l record computed without the enforcement pass.
        store = RunStore(tmp_path / "runs")
        frequency_key = _key(hospital, l=2)
        entropy_key = _key(hospital, l=2, privacy=EntropyLDiversity(2.0))
        assert frequency_key != entropy_key
        store.put(frequency_key, _cached_run(hospital))
        assert store.get(entropy_key, hospital) is None
        assert store.get(frequency_key, hospital) is not None

    def test_spec_separation_survives_process_restart(self, hospital, tmp_path):
        path = tmp_path / "runs"
        RunStore(path).put(_key(hospital, l=2), _cached_run(hospital))
        fresh = RunStore(path)
        assert fresh.get(_key(hospital, l=2, privacy=EntropyLDiversity(2.0)), hospital) is None
        assert fresh.get(_key(hospital, l=2), hospital) is not None

    def test_legacy_key_shapes_are_dropped(self, hospital, tmp_path):
        # Both legacy shapes carry a backend: (fp, algorithm, l, shards,
        # backend, seed, privacy) and the older (..., backend, seed).  They
        # are never replayed — the older one even has the current length.
        path = tmp_path / "runs"
        store = RunStore(path)
        run = _cached_run(hospital)
        for l in (2, 3, 4):
            store.put(_key(hospital, l=l), run)
        fingerprint, algorithm, l, shards, seed, privacy = _key(hospital, l=3)
        with_backend = [fingerprint, algorithm, l, shards, "reference", seed, privacy]
        pre_privacy = [fingerprint, algorithm, l, shards, "numpy", seed]
        for l, legacy in ((3, with_backend), (4, pre_privacy)):
            record = store._record_dir(_key(hospital, l=l))
            _rewrite_meta(record, lambda meta, legacy=legacy: meta.update(key=legacy))
        fresh = RunStore(path)
        assert fresh.get(_key(hospital, l=3), hospital) is None
        assert fresh.keys() == [_key(hospital, l=2)]
        assert fresh.recovered == 2
        assert len(_record_dirs(path)) == 1

    def test_a_file_at_the_store_path_raises_at_open(self, tmp_path):
        path = tmp_path / "flat"
        path.write_text('{"key": ["x"]}\n')
        with pytest.raises(FileExistsError, match="flat"):
            RunStore(path)
        assert path.read_text() == '{"key": ["x"]}\n'  # never deleted

    @pytest.mark.parametrize("algorithm", ["TP", "Mondrian"])
    def test_a_v1_record_is_a_recovered_miss_then_recomputed(self, hospital, algorithm, tmp_path):
        """A record in the retired ``repro.runstore.record`` v1 layout (the
        group form without SA codes or string tables, sub-domains as ``[group,
        column, codes]`` triples) is dropped and recomputed, never misread."""
        path = tmp_path / "runs"

        def run(expect_hit: bool):
            store = RunStore(path)
            report = Engine(cache=ResultCache(store=store)).run_table(
                hospital, algorithm, 2, shards=1, workers=1, seed=0
            )
            assert report.store_hit is expect_hit
            return store, report

        _store, computed = run(False)
        (record,) = _record_dirs(path)
        meta = json.loads((record / "meta.json").read_text())
        generalized = computed.generalized
        for name in list(record.iterdir()):
            name.unlink()
        groups, group_of = np.unique(generalized.group_ids_array(), return_inverse=True)
        rows = [generalized.row_cells(int(np.argmax(group_of == g))) for g in range(len(groups))]
        subdomains = [
            [group, column, sorted(cell)]
            for group, cells in enumerate(rows)
            for column, cell in enumerate(cells)
            if isinstance(cell, frozenset)
        ]
        star = [[cell is STAR for cell in cells] for cells in rows]
        codes = [[cell if isinstance(cell, int) else 0 for cell in cells] for cells in rows]
        np.save(record / "rep_codes.npy", np.asarray(codes, dtype=np.int32))
        np.save(record / "rep_star.npy", np.asarray(star, dtype=bool))
        np.save(record / "group_of.npy", group_of.astype(np.int64))
        (record / "meta.json").write_text(json.dumps({
            "format": "repro.runstore.record", "version": 1, "key": meta["key"],
            "n": len(hospital), "anonymize_seconds": meta["anonymize_seconds"],
            "shard_sizes": meta["shard_sizes"], "phase_reached": meta["phase_reached"],
            "enforcement_merges": meta["enforcement_merges"], "subdomains": subdomains,
        }))

        store, recomputed = run(False)
        assert (store.recovered, store.misses, store.hits) == (1, 1, 0)
        assert recomputed.generalized.cell_rows == generalized.cell_rows
        store, served = run(True)
        assert (store.recovered, store.hits) == (0, 1)
        assert served.generalized.cell_rows == generalized.cell_rows

    def test_a_legacy_workspace_recomputes_then_hits(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "runs.jsonl").write_text('{"key": ["x"], "group_ids": ["a"]}\n')
        spec = {
            "algorithm": "TP+", "l": 3, "metrics": [], "shards": None, "seed": 0,
            "chunk_rows": None, "include_rows": False, "job_id": "",
            "source": {"kind": "synthetic", "dataset": "SAL", "n": 300, "seed": 2,
                       "dimension": 3},
        }
        assert not execute_job(spec, str(root), True)["store_hit"]
        assert (root / "runs.jsonl").exists()  # left alone and never read
        assert execute_job(spec, str(root), True)["store_hit"]
