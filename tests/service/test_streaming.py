"""Tests for the bounded-memory CSV-to-CSV streaming pipeline."""

from __future__ import annotations

import csv
import hashlib

import pytest

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine import CsvSource, Engine, ResultCache, RunPlan
from repro.engine.sources import CsvDecoder
from repro.errors import IneligibleTableError
from repro.privacy.spec import (
    EntropyLDiversity,
    FrequencyLDiversity,
    RecursiveCLDiversity,
    TCloseness,
)
from repro.service.streaming import (
    stream_anonymize,
    verify_csv_l_diverse,
    verify_csv_satisfies,
)

QI = ("Age", "Gender", "Race")
SA = "Income"
#: SHA-256 of the file the pinned run below publishes from the module's
#: census CSV; how the input is read must never move it.
PINNED_SHA256 = "d770532c93c80883562d10a4009306e740189d56bc97af2ac9c941ae0213761d"


@pytest.fixture(scope="module")
def census_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "census.csv"
    table = make_sal(1_200, seed=7, config=CensusConfig.scaled(0.25)).project(QI)
    table.to_csv(str(path))
    return str(path), table


def _source(path: str) -> CsvSource:
    return CsvSource(path, QI, SA)


def _published_rows(path: str) -> list[tuple[str, ...]]:
    with open(path, newline="") as handle:
        return [tuple(row[name] for name in (*QI, SA)) for row in csv.DictReader(handle)]


class TestStreamAnonymize:
    def test_matches_in_memory_sharded_run(self, census_csv, tmp_path):
        """Streaming and the in-memory engine build identical QI-prefix shards,
        so their published tables agree as multisets of rendered rows."""
        path, _table = census_csv
        output = str(tmp_path / "streamed.csv")
        report = stream_anonymize(
            _source(path), output, algorithm="TP", l=3, shards=3, chunk_rows=250
        )
        in_memory = Engine(cache=ResultCache()).run(
            RunPlan(source=_source(path), algorithm="TP", l=3, shards=3)
        )
        assert report.n == in_memory.n
        assert report.shard_sizes == in_memory.shard_sizes
        assert report.stars == in_memory.generalized.star_count()
        assert report.suppressed_tuples == in_memory.generalized.suppressed_tuple_count()
        from repro.engine.sinks import render_cell_value

        expected = sorted(
            tuple(str(render_cell_value(record[name])) for name in (*QI, SA))
            for record in in_memory.generalized.decoded_records()
        )
        assert sorted(_published_rows(output)) == expected

    def test_published_bytes_are_pinned(self, census_csv, tmp_path):
        path, _table = census_csv
        output = tmp_path / "pinned.csv"
        stream_anonymize(
            _source(path), output, algorithm="TP", l=3, shards=3, chunk_rows=250
        )
        assert hashlib.sha256(output.read_bytes()).hexdigest() == PINNED_SHA256

    def test_the_input_is_decoded_once(self, census_csv, tmp_path, monkeypatch):
        path, _table = census_csv
        passes = []
        batches, dict_reader = CsvDecoder.batches, csv.DictReader

        def counted_batches(decoder, *args, **kwargs):
            passes.append("batches")
            return batches(decoder, *args, **kwargs)

        def counted_dict_reader(*args, **kwargs):
            passes.append("DictReader")
            return dict_reader(*args, **kwargs)

        monkeypatch.setattr(CsvDecoder, "batches", counted_batches)
        monkeypatch.setattr(csv, "DictReader", counted_dict_reader)
        stream_anonymize(
            _source(path), tmp_path / "once.csv", algorithm="TP", l=3, shards=3,
            chunk_rows=250,
        )
        assert passes == ["batches"]

    def test_chunk_size_does_not_change_the_result(self, census_csv, tmp_path):
        path, _table = census_csv
        small = str(tmp_path / "small-chunks.csv")
        large = str(tmp_path / "large-chunks.csv")
        a = stream_anonymize(_source(path), small, algorithm="TP", l=3, shards=3, chunk_rows=100)
        b = stream_anonymize(_source(path), large, algorithm="TP", l=3, shards=3, chunk_rows=100_000)
        assert a.shard_sizes == b.shard_sizes
        assert a.stars == b.stars
        assert sorted(_published_rows(small)) == sorted(_published_rows(large))

    def test_output_is_l_diverse_and_complete(self, census_csv, tmp_path):
        path, table = census_csv
        output = str(tmp_path / "streamed.csv")
        report = stream_anonymize(_source(path), output, algorithm="TP+", l=4, shards=2)
        assert report.verified
        rows = _published_rows(output)
        assert len(rows) == len(table)
        assert verify_csv_l_diverse(output, QI, SA, 4)
        # The sensitive column survives as a multiset.
        from collections import Counter

        assert Counter(row[-1] for row in rows) == Counter(
            str(record[SA]) for record in table.decoded_records()
        )

    def test_planner_chooses_shards_when_unset(self, census_csv, tmp_path):
        path, _table = census_csv
        output = str(tmp_path / "auto.csv")
        report = stream_anonymize(_source(path), output, algorithm="TP", l=3)
        # 1200 rows is far below the sharding payoff threshold.
        assert report.shard_sizes == (1_200,)
        assert report.verified

    def test_ineligible_table_raises(self, tmp_path):
        path = tmp_path / "skewed.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Q", "S"])
            writer.writerows([["a", "flu"]] * 9 + [["b", "cold"]])
        with pytest.raises(IneligibleTableError):
            stream_anonymize(
                CsvSource(str(path), ("Q",), "S"), str(tmp_path / "out.csv"), l=5
            )

    def test_quoted_fields_may_span_lines(self, tmp_path):
        path = tmp_path / "multiline.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Q", "S"])
            writer.writerows([f"line\nbreak{i % 3}", f"s{i % 4}"] for i in range(24))
        output = str(tmp_path / "out.csv")
        report = stream_anonymize(CsvSource(str(path), ("Q",), "S"), output, l=2, shards=1)
        assert report.n == 24
        assert verify_csv_l_diverse(output, ("Q",), "S", 2)

    def test_invalid_chunk_rows_raises(self, census_csv, tmp_path):
        path, _table = census_csv
        with pytest.raises(ValueError, match="chunk_rows"):
            stream_anonymize(_source(path), str(tmp_path / "o.csv"), l=2, chunk_rows=0)


class TestVerifyCsv:
    def test_rejects_a_non_diverse_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([*QI, SA])
            writer.writerows([["*", "*", "*", "flu"]] * 3 + [["*", "*", "*", "cold"]])
        assert not verify_csv_l_diverse(path, QI, SA, 2)
        assert verify_csv_l_diverse(path, QI, SA, 1)

    def test_rejects_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("A,B,C,S\n")
        assert not verify_csv_l_diverse(path, ("A", "B", "C"), "S", 2)


class TestStreamingPrivacySpecs:
    def test_streamed_entropy_run_verifies_with_the_matching_checker(
        self, census_csv, tmp_path
    ):
        path, _table = census_csv
        output = str(tmp_path / "entropy.csv")
        spec = EntropyLDiversity(2.0)
        report = stream_anonymize(
            _source(path), output, algorithm="TP", privacy=spec,
            shards=2, chunk_rows=300,
        )
        assert report.privacy == spec.token()
        assert verify_csv_satisfies(output, QI, SA, spec)
        # and the spec view agrees with the dict / l-sugar encodings
        assert verify_csv_satisfies(output, QI, SA, {"kind": "entropy-l", "l": 2.0})
        assert verify_csv_l_diverse(output, QI, SA, 2)

    def test_strict_recursive_spec_repairs_per_shard(self, census_csv, tmp_path):
        path, _table = census_csv
        output = str(tmp_path / "recursive.csv")
        spec = RecursiveCLDiversity(0.5, 2)
        report = stream_anonymize(
            _source(path), output, algorithm="TP", privacy=spec,
            shards=2, chunk_rows=300,
        )
        assert report.verified
        assert verify_csv_satisfies(output, QI, SA, spec)
        # every input row survives the repair merges
        assert len(_published_rows(output)) == report.n

    def test_default_path_unchanged_by_explicit_frequency_spec(
        self, census_csv, tmp_path
    ):
        path, _table = census_csv
        sugar = str(tmp_path / "sugar.csv")
        explicit = str(tmp_path / "explicit.csv")
        stream_anonymize(_source(path), sugar, algorithm="TP", l=3, shards=2)
        stream_anonymize(
            _source(path), explicit, algorithm="TP",
            privacy=FrequencyLDiversity(3), shards=2,
        )
        with open(sugar) as a, open(explicit) as b:
            assert a.read() == b.read()

    def test_check_only_spec_rejected(self, census_csv, tmp_path):
        path, _table = census_csv
        with pytest.raises(ValueError, match="check-only"):
            stream_anonymize(
                _source(path), str(tmp_path / "t.csv"), privacy=TCloseness(0.2)
            )

    def test_ineligible_spec_raises(self, census_csv, tmp_path):
        path, _table = census_csv
        with pytest.raises(IneligibleTableError):
            stream_anonymize(
                _source(path), str(tmp_path / "x.csv"),
                privacy=EntropyLDiversity(10_000.0),
            )

    def test_verify_csv_satisfies_t_closeness_audit(self, census_csv, tmp_path):
        path, _table = census_csv
        output = str(tmp_path / "audit.csv")
        stream_anonymize(_source(path), output, algorithm="TP", l=2, shards=1)
        # Distance is in [0, 1]: the loosest threshold always passes, a
        # negative-distance demand never does.
        assert verify_csv_satisfies(output, QI, SA, TCloseness(1.0))
