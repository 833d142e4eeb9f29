"""ColumnStore: zero-copy layout, persistence round trips, mmap bit-identity."""

from __future__ import annotations

import json

import pytest

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine import ColumnStore, ColumnStoreSource, CsvSource
from repro.engine.registry import algorithm_registry
from repro.engine.core import run_with_spec
from repro.errors import DataSourceError
from repro.privacy.spec import resolve_privacy


@pytest.fixture(scope="module")
def census():
    return make_sal(1200, seed=5, config=CensusConfig.scaled(0.2))


@pytest.fixture()
def store_dir(census, tmp_path):
    return ColumnStore.from_table(census).save(tmp_path / "store")


# ----------------------------------------------------------------- structure


def test_from_table_is_zero_copy(census):
    store = ColumnStore.from_table(census)
    assert store.qi is census.qi_columns
    assert store.sa is census.sa_array
    assert store.n == len(census)
    assert store.d == census.dimension
    assert not store.mmapped


def test_slice_shares_buffers(census):
    store = ColumnStore.from_table(census)
    view = store.slice(100, 300)
    assert view.n == 200
    assert view.qi.base is not None  # a view, not a copy
    assert view.table().fingerprint() == census.subset(range(100, 300)).fingerprint()


def test_iter_slices(census):
    store = ColumnStore.from_table(census)
    pieces = list(store.iter_slices(500))
    assert [piece.n for piece in pieces] == [500, 500, 200]
    for start, piece in zip(range(0, 1200, 500), pieces):
        rows = range(start, start + piece.n)
        assert piece.table().fingerprint() == census.subset(rows).fingerprint()
    with pytest.raises(ValueError):
        list(store.iter_slices(0))


def test_shape_validation(census):
    store = ColumnStore.from_table(census)
    with pytest.raises(ValueError):
        ColumnStore(census.schema, store.qi[:, :1], store.sa)
    with pytest.raises(ValueError):
        ColumnStore(census.schema, store.qi, store.sa[:-1])


# --------------------------------------------------------------- persistence


def test_save_mmap_load_round_trip(census, store_dir):
    assert ColumnStore.is_store_dir(store_dir)
    mapped = ColumnStore.mmap(store_dir)
    assert mapped.mmapped
    loaded = ColumnStore.load(store_dir)
    assert not loaded.mmapped
    assert mapped.fingerprint() == census.fingerprint()
    assert loaded.fingerprint() == census.fingerprint()
    assert mapped.schema == census.schema


def test_mmap_missing_or_corrupt_dir(tmp_path):
    assert not ColumnStore.is_store_dir(tmp_path / "nope")
    with pytest.raises(DataSourceError):
        ColumnStore.mmap(tmp_path / "nope")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "schema.json").write_text("{not json")
    with pytest.raises(DataSourceError):
        ColumnStore.mmap(bad)


def test_mmap_rejects_row_count_mismatch(census, store_dir):
    payload = json.loads((store_dir / "schema.json").read_text())
    payload["n"] = payload["n"] + 1
    (store_dir / "schema.json").write_text(json.dumps(payload))
    with pytest.raises(DataSourceError):
        ColumnStore.mmap(store_dir)


@pytest.mark.parametrize("opener", [ColumnStore.mmap, ColumnStore.load])
def test_truncated_buffer_is_a_data_source_error(store_dir, opener):
    buffer = store_dir / "qi.npy"
    buffer.write_bytes(buffer.read_bytes()[:-64])
    with pytest.raises(DataSourceError):
        opener(store_dir)


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: payload.pop("qi"),
        lambda payload: payload.update(sensitive=7),
        lambda payload: payload.update(version=99),
    ],
    ids=["missing-key", "wrong-type", "unknown-version"],
)
def test_malformed_schema_is_a_data_source_error(store_dir, edit):
    payload = json.loads((store_dir / "schema.json").read_text())
    edit(payload)
    (store_dir / "schema.json").write_text(json.dumps(payload))
    with pytest.raises(DataSourceError):
        ColumnStore.mmap(store_dir)


def test_convert_csv_matches_csv_source(census, tmp_path):
    csv_path = tmp_path / "data.csv"
    census.to_csv(str(csv_path))
    qi = tuple(census.schema.qi_names)
    sa = census.schema.sensitive.name
    baseline = CsvSource(str(csv_path), qi, sa).load()

    converted = ColumnStore.convert_csv(
        csv_path, tmp_path / "store", qi, sa, chunk_rows=321
    )
    assert converted.mmapped
    assert converted.fingerprint() == baseline.fingerprint()


def test_convert_csv_rejects_empty(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("a,b,s\n")
    with pytest.raises(DataSourceError):
        ColumnStore.convert_csv(csv_path, tmp_path / "store", ("a", "b"), "s")


# -------------------------------------------------------------------- source


def test_source_contract(census, store_dir):
    source = ColumnStoreSource(str(store_dir))
    assert source.label == str(store_dir)
    assert source.load().fingerprint() == census.fingerprint()
    in_memory = ColumnStoreSource(str(store_dir), mmap=False)
    assert in_memory.load().fingerprint() == census.fingerprint()


# -------------------------------------------------- mmap algorithm identity


SPECS = (
    {"kind": "frequency-l", "l": 3},
    {"kind": "entropy-l", "l": 2},
    {"kind": "recursive-cl", "c": 2.0, "l": 2},
    {"kind": "k-anonymity", "k": 3},
)


def test_mmap_table_matches_in_memory_table(census, store_dir):
    mapped = ColumnStore.mmap(store_dir).table()
    assert mapped.fingerprint() == census.fingerprint()
    assert mapped.group_by_qi() == census.group_by_qi()


@pytest.mark.parametrize(
    "algorithm", [info.name for info in algorithm_registry.entries()]
)
@pytest.mark.parametrize("spec_encoding", SPECS, ids=lambda spec: spec["kind"])
def test_every_algorithm_is_bit_identical_on_mmap(
    census, store_dir, algorithm, spec_encoding
):
    """The paper-level property: the storage layer is invisible to outputs.

    Every registered algorithm, run under every enforceable PrivacySpec
    family, must publish exactly the same generalization (same groups, same
    cells, same suppressed rows) whether the table lives in process memory
    or in memory-mapped column buffers.
    """
    spec = resolve_privacy(spec_encoding)
    runner = algorithm_registry.get(algorithm).runner
    mapped = ColumnStore.mmap(store_dir).table()

    expected = run_with_spec(runner, census, spec)
    actual = run_with_spec(runner, mapped, spec)
    assert actual.generalized.groups() == expected.generalized.groups()
    assert actual.generalized.star_count() == expected.generalized.star_count()
    assert (
        actual.generalized.suppressed_tuple_count()
        == expected.generalized.suppressed_tuple_count()
    )


# ------------------------------------------------------------ order sidecar


def test_order_cache_round_trip(census, store_dir):
    from repro.engine.columnstore import ORDER_FILE, ORDER_META_FILE, StoreOrderCache

    source = ColumnStoreSource(str(store_dir))
    cold = source.load()
    assert StoreOrderCache(store_dir).load(cold) is None  # nothing persisted yet
    context = cold.grouping()  # computes the sort and persists it
    assert (store_dir / ORDER_FILE).exists()
    assert (store_dir / ORDER_META_FILE).exists()

    warm = ColumnStoreSource(str(store_dir)).load()
    recovered = StoreOrderCache(store_dir).load(warm)
    assert recovered is not None
    assert recovered.tolist() == context.order.tolist()
    # The warm table's grouping is served from the sidecar, bit-identically.
    for fast, slow in zip(warm.grouping().arrays(), context.arrays()):
        assert fast.tolist() == slow.tolist()


def test_order_cache_warm_start_skips_the_sort(census, store_dir, monkeypatch):
    ColumnStoreSource(str(store_dir)).load().grouping()

    def boom(*args, **kwargs):  # pragma: no cover - the assertion below
        raise AssertionError("warm start re-sorted despite order.npy")

    monkeypatch.setattr("repro.core.grouping.sort_qi_sa", boom)
    warm = ColumnStoreSource(str(store_dir)).load()
    assert warm.grouping().n == len(census)


def test_order_cache_invalidated_by_buffer_rewrite(census, store_dir):
    from repro.engine.columnstore import QI_FILE, StoreOrderCache

    cold = ColumnStoreSource(str(store_dir)).load()
    cold.grouping()
    # Rewriting a stored buffer must change its freshness stamp and void the
    # sidecar (size changes are caught by st_size, same-size rewrites by
    # mtime_ns).
    import os

    qi_path = store_dir / QI_FILE
    payload = qi_path.read_bytes()
    qi_path.write_bytes(payload)
    stat = os.stat(qi_path)
    os.utime(qi_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
    fresh = ColumnStoreSource(str(store_dir)).load()
    assert StoreOrderCache(store_dir).load(fresh) is None


def test_order_cache_rejects_schema_mismatch(census, store_dir, tmp_path):
    from repro.engine.columnstore import StoreOrderCache

    cold = ColumnStoreSource(str(store_dir)).load()
    cold.grouping()
    cache = StoreOrderCache(store_dir)

    other = make_sal(900, seed=5, config=CensusConfig.scaled(0.2))
    assert cache.load(other) is None  # row count differs

    subset = census.subset(range(len(census)))
    assert cache.load(subset) is not None  # same schema and n: accepted


def test_order_cache_rejects_corrupt_meta(census, store_dir):
    from repro.engine.columnstore import ORDER_META_FILE, StoreOrderCache

    cold = ColumnStoreSource(str(store_dir)).load()
    cold.grouping()
    (store_dir / ORDER_META_FILE).write_text("{not json")
    fresh = ColumnStoreSource(str(store_dir)).load()
    assert StoreOrderCache(store_dir).load(fresh) is None


def test_order_cache_fingerprint_mismatch_is_a_miss(census, store_dir):
    from repro.engine.columnstore import StoreOrderCache

    cold = ColumnStoreSource(str(store_dir)).load()
    cold.fingerprint()  # cache the fingerprint so store() records it
    cold.grouping()
    fresh = ColumnStoreSource(str(store_dir)).load()
    fresh._fingerprint = "not-the-real-fingerprint"
    assert StoreOrderCache(store_dir).load(fresh) is None
    # Without a cached fingerprint the check is skipped (opportunistic).
    lazy = ColumnStoreSource(str(store_dir)).load()
    assert StoreOrderCache(store_dir).load(lazy) is not None
