"""ResultArtifact: legacy byte-identity, persistence round trips, validation."""

from __future__ import annotations

import json

import pytest

from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.examples import hospital_microdata
from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine.columnstore import (
    RESULT_GROUPS_FILE,
    RESULT_META_FILE,
    ResultArtifact,
)
from repro.errors import DataSourceError
from tests.group_oracles import from_partition_reference
from tests.render_oracle import legacy_csv, legacy_rows


@pytest.fixture(scope="module")
def published():
    table = make_sal(800, seed=11, config=CensusConfig.scaled(0.2))
    return table, GeneralizedTable.from_partition(table, Partition.by_qi(table))


# --------------------------------------------------------------- rendering


def test_rows_match_the_legacy_render(published):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    assert artifact is not None
    header, rows = legacy_rows(generalized)
    assert artifact.header == header
    assert artifact.rows() == rows


def test_csv_bytes_match_the_legacy_render(published):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    assert artifact.csv_bytes() == legacy_csv(generalized)


def test_chunked_streaming_equals_monolithic_write(published):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    whole = artifact.csv_bytes()
    for chunk_rows in (1, 7, 333, 10**6):
        chunks = list(artifact.iter_csv_chunks(chunk_rows))
        assert b"".join(chunks) == whole
        # header rides in the first chunk exactly once
        assert chunks[0].startswith(",".join(artifact.header).encode("utf-8"))


def test_chunk_rows_must_be_positive(published):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    with pytest.raises(ValueError):
        list(artifact.iter_csv_chunks(0))


def test_hospital_stars_render_as_star_text():
    table = hospital_microdata()
    generalized = GeneralizedTable.from_partition(table, Partition.by_qi(table))
    artifact = ResultArtifact.from_generalized(generalized)
    _header, rows = legacy_rows(generalized)
    assert artifact.rows() == rows
    assert artifact.csv_bytes() == legacy_csv(generalized)


def test_tables_with_explicit_cells_group_by_distinct_cells(published):
    table, generalized = published
    reference = from_partition_reference(table, Partition.by_qi(table))
    assert reference.columnar_publish() is None
    artifact = ResultArtifact.from_generalized(reference)
    assert artifact.g == len(set(reference.cell_rows))
    assert artifact.rows() == legacy_rows(reference)[1]
    assert artifact.csv_bytes() == ResultArtifact.from_generalized(generalized).csv_bytes()


def test_subdomain_cells_extend_their_column_string_table():
    from repro.baselines import mondrian

    table = hospital_microdata()
    generalized = mondrian.anonymize(table, 2).generalized
    artifact = ResultArtifact.from_generalized(generalized)
    widths = [attribute.size for attribute in table.schema.qi]
    assert any(len(strings) > size for strings, size in zip(artifact.qi_tables, widths))
    assert artifact.rows() == legacy_rows(generalized)[1]
    assert artifact.csv_bytes() == legacy_csv(generalized)


# ------------------------------------------------------------- persistence


def test_save_mmap_load_round_trip_is_byte_identical(published, tmp_path):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    target = tmp_path / "result"
    size = artifact.save(target)
    assert size > 0
    expected = artifact.csv_bytes()
    for reopened in (ResultArtifact.mmap(target), ResultArtifact.load(target)):
        assert reopened.n == artifact.n and reopened.g == artifact.g
        assert reopened.header == artifact.header
        assert reopened.rows() == artifact.rows()
        assert reopened.csv_bytes() == expected


def test_save_reports_on_disk_bytes(published, tmp_path):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    target = tmp_path / "result"
    size = artifact.save(target)
    assert size == sum(child.stat().st_size for child in target.iterdir())


def test_missing_directory_is_a_data_source_error(tmp_path):
    with pytest.raises(DataSourceError):
        ResultArtifact.mmap(tmp_path / "nope")


def test_foreign_meta_is_rejected(published, tmp_path):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    target = tmp_path / "result"
    artifact.save(target)
    meta = json.loads((target / RESULT_META_FILE).read_text())
    meta["format"] = "something-else"
    (target / RESULT_META_FILE).write_text(json.dumps(meta))
    with pytest.raises(DataSourceError):
        ResultArtifact.load(target)


def _saved(published, tmp_path):
    _, generalized = published
    target = tmp_path / "result"
    ResultArtifact.from_generalized(generalized).save(target)
    return target


def _rewrite_meta(target, edit):
    meta = json.loads((target / RESULT_META_FILE).read_text())
    edit(meta)
    (target / RESULT_META_FILE).write_text(json.dumps(meta))


@pytest.mark.parametrize("opener", [ResultArtifact.mmap, ResultArtifact.load])
def test_truncated_buffer_is_a_data_source_error(published, tmp_path, opener):
    target = _saved(published, tmp_path)
    buffer = target / RESULT_GROUPS_FILE
    buffer.write_bytes(buffer.read_bytes()[:-64])
    with pytest.raises(DataSourceError):
        opener(target)


def test_meta_without_string_tables_is_a_data_source_error(published, tmp_path):
    target = _saved(published, tmp_path)
    _rewrite_meta(target, lambda meta: meta.pop("qi_tables"))
    with pytest.raises(DataSourceError):
        ResultArtifact.mmap(target)


def test_unknown_version_is_rejected(published, tmp_path):
    target = _saved(published, tmp_path)
    _rewrite_meta(target, lambda meta: meta.update(version=99))
    with pytest.raises(DataSourceError, match="version"):
        ResultArtifact.mmap(target)


def test_meta_row_count_mismatch_is_rejected(published, tmp_path):
    _, generalized = published
    artifact = ResultArtifact.from_generalized(generalized)
    target = tmp_path / "result"
    artifact.save(target)
    meta = json.loads((target / RESULT_META_FILE).read_text())
    meta["n"] = meta["n"] + 1
    (target / RESULT_META_FILE).write_text(json.dumps(meta))
    with pytest.raises(DataSourceError):
        ResultArtifact.load(target)
