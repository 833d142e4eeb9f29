"""Tests for the microdata table substrate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dataset.table import Attribute, DomainError, Schema, Table
from repro.engine import CsvSource
from tests.conftest import make_random_table


class TestAttribute:
    def test_encode_decode_round_trip(self):
        attribute = Attribute("Color", ("red", "green", "blue"))
        for value in attribute.values:
            assert attribute.decode(attribute.encode(value)) == value

    def test_size(self):
        assert Attribute("A", (1, 2, 3)).size == 3

    def test_contains(self):
        attribute = Attribute("A", ("x", "y"))
        assert "x" in attribute
        assert "z" not in attribute

    def test_encode_unknown_value_raises(self):
        attribute = Attribute("A", ("x",))
        with pytest.raises(DomainError):
            attribute.encode("unknown")

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Attribute("A", ())

    def test_duplicate_domain_values_rejected(self):
        with pytest.raises(ValueError):
            Attribute("A", ("x", "x"))

    def test_from_values_sorts_and_deduplicates(self):
        attribute = Attribute.from_values("A", ["b", "a", "b", "c"])
        assert attribute.values == ("a", "b", "c")

    def test_from_values_mixed_types_fallback(self):
        attribute = Attribute.from_values("A", [1, "a"])
        assert attribute.size == 2


class TestSchema:
    def _schema(self) -> Schema:
        return Schema(
            qi=(Attribute("Age", (1, 2)), Attribute("Sex", ("M", "F"))),
            sensitive=Attribute("Disease", ("flu", "hiv")),
        )

    def test_dimension_and_names(self):
        schema = self._schema()
        assert schema.dimension == 2
        assert schema.qi_names == ("Age", "Sex")

    def test_qi_attribute_lookup(self):
        schema = self._schema()
        assert schema.qi_attribute("Sex").size == 2
        assert schema.qi_position("Sex") == 1

    def test_unknown_attribute_raises(self):
        schema = self._schema()
        with pytest.raises(KeyError):
            schema.qi_attribute("Nope")
        with pytest.raises(KeyError):
            schema.qi_position("Nope")

    def test_project(self):
        schema = self._schema()
        projected = schema.project(["Sex"])
        assert projected.qi_names == ("Sex",)
        assert projected.sensitive.name == "Disease"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema(
                qi=(Attribute("X", (1,)), Attribute("X", (2,))),
                sensitive=Attribute("S", (0,)),
            )

    def test_domain_sizes(self):
        sizes = self._schema().domain_sizes
        assert sizes == {"Age": 2, "Sex": 2, "Disease": 2}


class TestTableConstruction:
    def test_row_and_sa_access(self, hospital):
        assert len(hospital) == 10
        assert hospital.dimension == 3
        record = hospital.decoded_record(0)
        assert record["Disease"] == "HIV"
        assert record["Age"] == "<30"

    def test_mismatched_lengths_rejected(self):
        schema = Schema(qi=(Attribute("A", (0, 1)),), sensitive=Attribute("S", (0, 1)))
        with pytest.raises(ValueError):
            Table(schema, [(0,), (1,)], [0])

    def test_wrong_dimension_rejected(self):
        schema = Schema(qi=(Attribute("A", (0, 1)),), sensitive=Attribute("S", (0, 1)))
        with pytest.raises(ValueError):
            Table(schema, [(0, 1)], [0])

    def test_out_of_range_code_rejected(self):
        schema = Schema(qi=(Attribute("A", (0, 1)),), sensitive=Attribute("S", (0, 1)))
        with pytest.raises(DomainError):
            Table(schema, [(5,)], [0])
        with pytest.raises(DomainError):
            Table(schema, [(0,)], [7])

    def test_from_records_infers_domains(self):
        records = [
            {"a": "x", "b": 1, "s": "u"},
            {"a": "y", "b": 2, "s": "v"},
        ]
        table = Table.from_records(records, ["a", "b"], "s")
        assert table.schema.qi_attribute("a").values == ("x", "y")
        assert table.decoded_record(1) == {"a": "y", "b": 2, "s": "v"}

    def test_csv_round_trip(self, tmp_path, hospital):
        path = tmp_path / "hospital.csv"
        hospital.to_csv(str(path))
        reloaded = CsvSource(str(path), hospital.schema.qi_names, "Disease").load()
        assert len(reloaded) == len(hospital)
        assert reloaded.decoded_records() == hospital.decoded_records()


class TestTableQueries:
    def test_sa_counts(self, hospital):
        counts = hospital.sa_counts()
        disease = hospital.schema.sensitive
        assert counts[disease.encode("pneumonia")] == 4
        assert counts[disease.encode("HIV")] == 2

    def test_distinct_sa_count(self, hospital):
        assert hospital.distinct_sa_count == 4

    def test_eligibility(self, hospital):
        assert hospital.is_l_eligible(2)
        assert not hospital.is_l_eligible(3)
        assert hospital.max_l == 2

    def test_eligibility_invalid_l(self, hospital):
        with pytest.raises(ValueError):
            hospital.is_l_eligible(0)

    def test_empty_table_is_trivially_eligible(self):
        schema = Schema(qi=(Attribute("A", (0,)),), sensitive=Attribute("S", (0,)))
        table = Table(schema, [], [])
        assert table.is_l_eligible(5)
        assert table.max_l == 0

    def test_group_by_qi(self, hospital):
        groups = hospital.group_by_qi()
        assert sum(len(rows) for rows in groups.values()) == len(hospital)
        sizes = sorted(len(rows) for rows in groups.values())
        # Table 1: {Adam,Bob}, {Calvin}, {Danny}, {Eva..Helen}, {Ivy,Jane}
        assert sizes == [1, 1, 2, 2, 4]

    def test_distinct_qi_count(self, hospital):
        assert hospital.distinct_qi_count == 5

    def test_project_keeps_sa(self, hospital):
        projected = hospital.project(("Gender",))
        assert projected.dimension == 1
        assert projected.sa_values == hospital.sa_values
        assert projected.distinct_qi_count == 2

    def test_subset_and_sample(self, random_table):
        subset = random_table.subset([0, 5, 7])
        assert len(subset) == 3
        assert subset.qi_row(1) == random_table.qi_row(5)
        sample = random_table.sample(10, seed=1)
        assert len(sample) == 10

    def test_sample_too_large_rejected(self, random_table):
        with pytest.raises(ValueError):
            random_table.sample(len(random_table) + 1)

    def test_sample_deterministic(self, random_table):
        first = random_table.sample(10, seed=4)
        second = random_table.sample(10, seed=4)
        assert first.qi_rows == second.qi_rows
        assert first.sa_values == second.sa_values


class TestTableProperties:
    @given(
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_group_by_qi_partitions_rows(self, n, d, seed):
        table = make_random_table(n, d=d, seed=seed)
        groups = table.group_by_qi()
        all_rows = sorted(row for rows in groups.values() for row in rows)
        assert all_rows == list(range(n))
        for key, rows in groups.items():
            for row in rows:
                assert table.qi_row(row) == key

    @given(
        n=st.integers(min_value=1, max_value=30),
        l=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=30),
    )
    def test_max_l_consistent_with_eligibility(self, n, l, seed):
        table = make_random_table(n, seed=seed)
        assert table.is_l_eligible(l) == (l <= table.max_l) or l < 1
