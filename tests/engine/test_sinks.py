"""Tests for the incremental CsvSink output adapter."""

from __future__ import annotations

import csv
from functools import partial

import pytest

from repro.core.preprocess import anonymize_with_coarsening
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.synthetic import CensusConfig, make_sal
from repro.dataset.table import Attribute, Schema, Table
from repro.engine import CsvSink, CsvSource, Engine, ResultCache, TableSource, RunPlan
from repro.engine.registry import algorithm_registry
from repro.engine.sinks import render_cell_value
from repro.privacy.spec import KAnonymity, RecursiveCLDiversity
from repro.service.store import RunStore
from repro.service.streaming import stream_anonymize
from tests.conftest import make_random_table
from tests.render_oracle import legacy_csv


def _generalized(table, algorithm="TP", l=2, engine=None, **plan):
    engine = engine or Engine(cache=ResultCache())
    report = engine.run(
        RunPlan(source=TableSource(table), algorithm=algorithm, l=l, **plan)
    )
    return report.generalized


def _quoting_table() -> Table:
    """Labels that need CSV quoting, in the header and in every column."""
    schema = Schema(
        qi=(
            Attribute("Town, State", ("Ely, NV", 'the "Hub"', "plain", "semi;colon")),
            Attribute("Score", (1.5, 2.25, -0.0, 10.0)),
            Attribute("Flag", (True, False)),
        ),
        sensitive=Attribute('Dis"ease', ("flu", "line\nbreak", "c,old", "")),
    )
    source = make_random_table(120, d=3, qi_domain=2, m=4, seed=9)
    return Table(schema, [tuple(row) for row in source.qi_rows], list(source.sa_values))


def _sharded(census, algorithm):
    generalized = _generalized(census, algorithm, 4, shards=4, workers=1)
    assert len(generalized) == len(census)
    return generalized


def _store_hit(census, tmp_path, algorithm):
    path = tmp_path / "runs"
    _generalized(census, algorithm, 4, engine=Engine(cache=ResultCache(store=RunStore(path))))
    engine = Engine(cache=ResultCache(store=RunStore(path)))
    report = engine.run(RunPlan(source=TableSource(census), algorithm=algorithm, l=4))
    assert report.store_hit
    return report.generalized


def _algorithm(algorithm, census, _tmp):
    return [_generalized(census, algorithm, 4)]


#: name -> builder(census, tmp_path) of the published tables one sink writes.
PUBLISHED = {
    **{name: partial(_algorithm, name) for name in algorithm_registry.names()},
    "k-anonymity-rebuild": lambda census, _tmp: [
        _generalized(census, privacy=KAnonymity(5))
    ],
    "recursive-cl-repair": lambda census, _tmp: [
        _generalized(census, privacy=RecursiveCLDiversity(0.5, 2))
    ],
    "merged-4-shards": lambda census, _tmp: [_sharded(census, "TP+")],
    "merged-4-shards-mondrian": lambda census, _tmp: [_sharded(census, "Mondrian")],
    "store-hit": lambda census, tmp: [_store_hit(census, tmp, "TP")],
    "store-hit-tds": lambda census, tmp: [_store_hit(census, tmp, "TDS")],
    "preprocess": lambda census, _tmp: [
        anonymize_with_coarsening(census, 3, depth=1).generalized
    ],
    "two-tables-one-sink": lambda census, _tmp: [
        _generalized(census.subset(range(0, 400)), "TP", 2),
        _generalized(census.subset(range(400, 800)), "Mondrian", 2),
    ],
    "empty": lambda census, _tmp: [
        GeneralizedTable.from_partition(census.subset([]), Partition([], 0))
    ],
    "quoted-labels": lambda _census, _tmp: [_generalized(_quoting_table(), "TP+", 2)],
    "quoted-labels-mondrian": lambda _census, _tmp: [
        _generalized(_quoting_table(), "Mondrian", 2)
    ],
}


@pytest.fixture(scope="module")
def census():
    """Three QIs keep most published cells exact rather than starred."""
    table = make_sal(800, seed=3, config=CensusConfig.scaled(0.2))
    return table.project(table.schema.qi_names[:3])


class TestByteIdentity:
    """CsvSink output equals the row-level renderer it replaced, byte for byte."""

    @pytest.mark.parametrize("case", sorted(PUBLISHED))
    def test_sink_bytes_equal_the_row_level_oracle(self, case, census, tmp_path):
        tables = PUBLISHED[case](census, tmp_path)
        path = tmp_path / "published.csv"
        with CsvSink(path) as sink:
            sink.open(tables[0].schema)
            for generalized in tables:
                sink.write_table(generalized)
        assert path.read_bytes() == legacy_csv(*tables)
        assert sink.rows_written == sum(len(generalized) for generalized in tables)

    @pytest.mark.parametrize("case", ["merged-4-shards", "store-hit"])
    def test_suppression_tables_carry_the_group_form(self, case, census, tmp_path):
        (generalized,) = PUBLISHED[case](census, tmp_path)
        assert generalized.columnar_publish() is not None

    def test_semicolon_delimited_stream(self, census, tmp_path, monkeypatch):
        source_path = tmp_path / "input.csv"
        census.to_csv(str(source_path), delimiter=";")
        written = []
        original = CsvSink.write_table

        def recording(sink, generalized):
            written.append(generalized)
            return original(sink, generalized)

        monkeypatch.setattr(CsvSink, "write_table", recording)
        source = CsvSource(
            str(source_path),
            tuple(census.schema.qi_names),
            census.schema.sensitive.name,
            delimiter=";",
        )
        output = tmp_path / "published.csv"
        stream_anonymize(source, output, algorithm="TP", l=2, shards=3, chunk_rows=100)
        assert len(written) > 1
        assert output.read_bytes() == legacy_csv(*written, delimiter=";")


class TestRenderCellValue:
    def test_plain_values_pass_through(self):
        assert render_cell_value("Flu") == "Flu"
        assert render_cell_value(7) == 7
        assert render_cell_value("*") == "*"

    def test_subdomains_render_as_braced_unions(self):
        assert render_cell_value(("a", "b")) == "{a|b}"
        assert render_cell_value((1, 2, 3)) == "{1|2|3}"


class TestCsvSink:
    def test_single_batch_export(self, hospital, tmp_path):
        generalized = _generalized(hospital)
        path = tmp_path / "published.csv"
        with CsvSink(path) as sink:
            written = sink.write_table(generalized)
        assert written == len(hospital) == sink.rows_written
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(hospital)
        assert any("*" in row.values() for row in rows)  # stars rendered

    def test_incremental_batches_equal_one_shot(self, hospital, tmp_path):
        generalized = _generalized(hospital)
        one_shot = tmp_path / "one.csv"
        incremental = tmp_path / "two.csv"
        with CsvSink(one_shot) as sink:
            sink.write_table(generalized)
            sink.write_table(generalized)
        with CsvSink(incremental) as sink:
            sink.open(generalized.schema)
            for _ in range(2):
                sink.write_table(generalized)
        assert one_shot.read_text() == incremental.read_text()
        assert sum(1 for _ in open(incremental)) == 2 * len(hospital) + 1

    def test_subdomain_cells_exported(self, hospital, tmp_path):
        generalized = _generalized(hospital, algorithm="Mondrian")
        path = tmp_path / "mondrian.csv"
        with CsvSink(path) as sink:
            sink.write_table(generalized)
        content = path.read_text()
        assert "{" in content and "|" in content  # at least one sub-domain cell

    def test_double_open_rejected(self, hospital, tmp_path):
        generalized = _generalized(hospital)
        with CsvSink(tmp_path / "x.csv") as sink:
            sink.open(generalized.schema)
            with pytest.raises(ValueError, match="already open"):
                sink.open(generalized.schema)

    def test_header_matches_schema(self, hospital, tmp_path):
        generalized = _generalized(hospital)
        path = tmp_path / "h.csv"
        with CsvSink(path) as sink:
            sink.open(generalized.schema)
        header = path.read_text().strip().split(",")
        assert header == list(generalized.schema.qi_names) + [
            generalized.schema.sensitive.name
        ]
