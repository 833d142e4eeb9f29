"""Tests for the dataset adapter layer."""

from __future__ import annotations

import pytest

from repro.dataset.examples import hospital_microdata
from repro.dataset.synthetic import CensusConfig
from repro.engine.columnstore import ColumnStore
from repro.engine.sources import CsvSource, SyntheticSource, TableSource
from repro.errors import DataSourceError

QI = ("Age", "Gender", "Education")
SA = "Disease"


@pytest.fixture
def hospital_csv(tmp_path):
    path = tmp_path / "hospital.csv"
    hospital_microdata().to_csv(str(path))
    return str(path)


class TestCsvSource:
    def test_load_round_trips(self, hospital_csv):
        original = hospital_microdata()
        loaded = CsvSource(hospital_csv, QI, SA).load()
        assert len(loaded) == len(original)
        assert loaded.decoded_records() == original.decoded_records()

    def test_schema_inference_matches_observed_domains(self, hospital_csv):
        schema = CsvSource(hospital_csv, QI, SA).load().schema
        assert schema.qi_names == QI
        assert schema.sensitive.name == SA
        table = hospital_microdata()
        for name in QI:
            observed = {str(record[name]) for record in table.decoded_records()}
            assert set(schema.qi_attribute(name).values) == observed

    def test_missing_column_raises(self, hospital_csv):
        with pytest.raises(DataSourceError, match="Nope"):
            CsvSource(hospital_csv, ("Age", "Nope"), SA).load()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataSourceError):
            CsvSource(str(tmp_path / "absent.csv"), QI, SA).load()

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataSourceError):
            CsvSource(str(path), QI, SA).load()

    # A CSV is read in chunks by converting it to a store and slicing that.
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 10, 100])
    def test_chunked_read_equals_full_load(self, hospital_csv, tmp_path, chunk_rows):
        source = CsvSource(hospital_csv, QI, SA)
        full = source.load()
        store = ColumnStore.convert_csv(
            hospital_csv, tmp_path / "store", QI, SA, chunk_rows=chunk_rows
        )
        chunks = [piece.table() for piece in store.iter_slices(chunk_rows)]
        assert all(len(chunk) <= chunk_rows for chunk in chunks)
        assert all(chunk.schema == full.schema for chunk in chunks)
        start = 0
        for chunk in chunks:
            rows = range(start, start + len(chunk))
            assert chunk.fingerprint() == full.subset(rows).fingerprint()
            start += len(chunk)
        assert start == len(full)
        assert store.fingerprint() == full.fingerprint()

    def test_chunk_rows_must_be_positive(self, hospital_csv, tmp_path):
        with pytest.raises(ValueError):
            ColumnStore.convert_csv(hospital_csv, tmp_path / "store", QI, SA, chunk_rows=0)
        assert not (tmp_path / "store").exists()

    def test_load_keeps_a_supplied_schema(self, hospital_csv):
        schema = CsvSource(hospital_csv, QI, SA).load().schema
        assert CsvSource(hospital_csv, QI, SA, schema=schema).load().schema is schema

    def test_label_is_path(self, hospital_csv):
        assert CsvSource(hospital_csv, QI, SA).label == hospital_csv


class TestSyntheticSource:
    def test_load_is_deterministic(self):
        source = SyntheticSource("SAL", n=300, seed=5, config=CensusConfig.scaled(0.2))
        assert source.load().fingerprint() == source.load().fingerprint()

    def test_seed_changes_fingerprint(self):
        config = CensusConfig.scaled(0.2)
        a = SyntheticSource("SAL", n=300, seed=5, config=config).load()
        b = SyntheticSource("SAL", n=300, seed=6, config=config).load()
        assert a.fingerprint() != b.fingerprint()

    def test_projection_dimension(self):
        source = SyntheticSource("OCC", n=200, dimension=3, config=CensusConfig.scaled(0.2))
        table = source.load()
        assert table.dimension == 3
        assert source.label == "OCC-3@200"

    def test_unknown_dataset_raises(self):
        with pytest.raises(DataSourceError):
            SyntheticSource("XYZ", n=10)

    def test_default_chunking_slices(self):
        source = SyntheticSource("SAL", n=250, config=CensusConfig.scaled(0.2))
        table = source.load()
        pieces = list(ColumnStore.from_table(table).iter_slices(100))
        assert [piece.n for piece in pieces] == [100, 100, 50]
        for start, piece in zip(range(0, 250, 100), pieces):
            rows = range(start, start + piece.n)
            assert piece.table().fingerprint() == table.subset(rows).fingerprint()


class TestTableSource:
    def test_wraps_table(self, hospital):
        source = TableSource(hospital, name="hospital")
        assert source.load() is hospital
        assert source.label == "hospital"
