"""One-pass CSV ingest against the two-pass oracle (``tests/ingest_oracle.py``).

``CsvSource.load`` and ``ColumnStore.convert_csv`` decode each file once;
their tables and store bytes must equal what the historical
infer-then-encode path produced, and every error case must keep its
exception type and message.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.table import Attribute, DomainError, Schema
from repro.engine import ColumnStore, CsvSource
from repro.engine.sources import CSV_BATCH_ROWS
from repro.errors import DataSourceError
from tests.ingest_oracle import oracle_store, oracle_table

STORE_FILES = ("schema.json", "qi.npy", "sa.npy")
QI = ("a", "b")
SA = "s"
SCHEMA = Schema(
    qi=(Attribute("a", ("1", "4")), Attribute("b", ("2", "5"))),
    sensitive=Attribute("s", ("3", "6")),
)


def write_csv(path: Path, header, rows, delimiter: str = ",") -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def store_bytes(directory: Path) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in STORE_FILES}


def outcome(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        return call()
    except (DataSourceError, DomainError) as error:
        return type(error).__name__, str(error)


def assert_matches_oracle(path: Path, qi, sa, delimiter=",", batch_rows=CSV_BATCH_ROWS):
    expected = outcome(lambda: oracle_table(path, qi, sa, delimiter=delimiter))
    loaded = outcome(lambda: CsvSource(str(path), qi, sa, delimiter=delimiter).load())
    if isinstance(expected, tuple):
        assert loaded == expected
    else:
        assert loaded.schema == expected.schema
        np.testing.assert_array_equal(loaded.qi_columns, expected.qi_columns)
        np.testing.assert_array_equal(loaded.sa_array, expected.sa_array)
        assert loaded.fingerprint() == expected.fingerprint()

    reference, converted = path.parent / "oracle-store", path.parent / "store"
    expected = outcome(lambda: oracle_store(path, reference, qi, sa, delimiter=delimiter))
    store = outcome(
        lambda: ColumnStore.convert_csv(
            path, converted, qi, sa, delimiter=delimiter, chunk_rows=batch_rows
        )
    )
    if isinstance(expected, tuple):
        assert store == expected
    else:
        assert store_bytes(converted) == store_bytes(reference)
        assert store.fingerprint() == ColumnStore.mmap(reference).fingerprint()


# ------------------------------------------------------------ the property

LABELS = st.one_of(
    st.text(st.characters(codec="utf-8", blacklist_characters="\x00"), max_size=5),
    st.sampled_from([
        "10", "9", "1", "01", "-1", "1e3", " 9", "9 ", '"', '""', ",", ";",
        "a,b", 'x"y', "\r\n", "\n", "\r", "é", "日本", "\U0001f642",
    ]),
)


@st.composite
def csv_cases(draw):
    """A CSV with QI columns out of header order and extra columns."""
    d = draw(st.integers(1, 3))
    names = [f"q{i}" for i in range(d)] + ["s"] + [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    header = draw(st.permutations(names))
    rows = draw(st.lists(
        st.lists(LABELS, min_size=len(names), max_size=len(names)), min_size=1, max_size=30,
    ))
    qi = tuple(draw(st.permutations(names[:d])))
    return header, rows, qi, draw(st.sampled_from([",", ";"]))


@settings(deadline=None, max_examples=80)
@given(csv_cases(), st.integers(1, 8))
def test_one_pass_ingest_equals_the_two_pass_oracle(case, batch_rows):
    header, rows, qi, delimiter = case
    with tempfile.TemporaryDirectory() as directory:
        path = write_csv(Path(directory) / "t.csv", header, rows, delimiter)
        assert_matches_oracle(path, qi, "s", delimiter, batch_rows)


# ------------------------------------------------------- named identities

HOSTILE = [
    ['"quoted"', "a,b", "x"],
    ["  lead", "trail  ", 'mid"dle'],
    ["", ";", "x"],
    ["'single'", "a,b", "\\"],
    ['"quoted"', "", "y"],
]
UNICODE = [
    ["日本", "é", "Ωmega"],
    ["\U0001f642", "é", "ß"],
    ["日本", "E", "ss"],
    ["ÅÄÖ", "é", "Ωmega"],
]
NUMERIC = [["10", "9", "1"], ["9", "10", "2"], ["100", "09", "1"], ["-1", "9", "2"]]


@pytest.mark.parametrize("rows", [HOSTILE, UNICODE, NUMERIC], ids=["hostile", "unicode", "numeric"])
@pytest.mark.parametrize("delimiter", [",", ";"])
def test_named_csvs_match_the_oracle(tmp_path, rows, delimiter):
    path = write_csv(tmp_path / "t.csv", ["x", "q", "s"], rows, delimiter)
    assert_matches_oracle(path, ("q", "x"), "s", delimiter, batch_rows=2)


def test_numeric_looking_labels_sort_as_strings(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["x", "q", "s"], NUMERIC)
    schema = CsvSource(str(path), ("x", "q"), "s").load().schema
    assert schema.qi_attribute("x").values == ("-1", "10", "100", "9")


def test_a_label_first_seen_in_a_late_batch(tmp_path):
    rows = [["b", str(i % 3), "y"] for i in range(2 * CSV_BATCH_ROWS + 5)] + [["a", "0", "z"]]
    path = write_csv(tmp_path / "t.csv", ["q", "r", "s"], rows)
    table = CsvSource(str(path), ("q", "r"), "s").load()
    assert table.schema.qi_attribute("q").values == ("a", "b")
    assert table.qi_columns[-1, 0] == 0 and (table.qi_columns[:-1, 0] == 1).all()
    assert_matches_oracle(path, ("q", "r"), "s")


def test_a_quoted_field_spanning_lines(tmp_path):
    rows = [[f"a\nb{i % 2}", "x\r\ny", str(i % 3)] for i in range(9)]
    path = write_csv(tmp_path / "t.csv", ["q", "r", "s"], rows)
    assert ColumnStore.convert_csv(path, tmp_path / "lines", ("q", "r"), "s").n == 9
    assert_matches_oracle(path, ("q", "r"), "s", batch_rows=2)


@pytest.mark.parametrize("entry", ["load", "convert_csv"])
def test_the_file_is_read_through_one_csv_reader(tmp_path, monkeypatch, entry):
    path = write_csv(tmp_path / "t.csv", ["a", "b", "s"], [["1", "2", "3"], ["4", "5", "6"]])
    built = []
    for name in ("reader", "DictReader"):
        real = getattr(csv, name)
        monkeypatch.setattr(
            csv, name, lambda *a, _real=real, _name=name, **k: built.append(_name) or _real(*a, **k)
        )
    if entry == "load":
        CsvSource(str(path), QI, SA).load()
    else:
        ColumnStore.convert_csv(path, tmp_path / "store", QI, SA)
    assert built == ["reader"]


# -------------------------------------------------------------- error cases

ENTRY_POINTS = {
    "load": lambda path, schema: CsvSource(str(path), QI, SA, schema=schema).load(),
    "convert_csv": lambda path, schema: ColumnStore.convert_csv(
        path, path.parent / "store", QI, SA, schema=schema
    ),
}
ANY = ("load", "convert_csv")
NO_DATA_ROWS = (DataSourceError, "no data rows to store")
# (text, supplied schema?, entry points) -> (exception, message pattern)
ERROR_CASES = [
    ("a,s\n1,3\n", False, ANY, (DataSourceError, r"columns \['b'\] not in header \['a', 's'\]")),
    ("a,s\n1,3\n", True, ANY, (DataSourceError, r"columns \['b'\] not in header \['a', 's'\]")),
    ("a,b,s\n1,2,3\n4,5\n", False, ANY, (DataSourceError, "cannot load .*list index out of range")),
    ("a,b,s\n1,2,3\n4,5\n", True, ANY, (DataSourceError, "cannot load .*list index out of range")),
    ("a,b,s\n1,2,3\n\n4,5,6\n", False, ANY, (DataSourceError, "cannot load .*list index out of range")),
    ("a,b,s\n1,2,3\n\n4,5,6\n", True, ANY, (DataSourceError, "cannot load .*list index out of range")),
    ("a,b,s\n", False, ANY, (DataSourceError, "no rows to infer a domain for 'a'")),
    ("a,b,s\n", True, ("convert_csv",), NO_DATA_ROWS),
    ("", False, ANY, (DataSourceError, r"empty CSV file \(no header row\)")),
    ("", True, ("load",), (DataSourceError, r"empty CSV file \(no header row\)")),
    ("", True, ("convert_csv",), NO_DATA_ROWS),
    ("a,b,s\n1,2,3\n4,9,6\n", True, ANY,
     (DomainError, "value '9' is not in the domain of attribute 'b'")),
]


@pytest.mark.parametrize(
    "text,supplied,entry,expected",
    [
        pytest.param(text, supplied, entry, expected, id=f"{index}-{entry}")
        for index, (text, supplied, entries, expected) in enumerate(ERROR_CASES)
        for entry in entries
    ],
)
def test_error_cases_keep_their_type_and_message(tmp_path, text, supplied, entry, expected):
    path = tmp_path / "t.csv"
    path.write_text(text)
    error, pattern = expected
    with pytest.raises(error, match=pattern):
        ENTRY_POINTS[entry](path, SCHEMA if supplied else None)


def test_a_header_only_file_with_a_schema_loads_an_empty_table(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,s\n")
    table = CsvSource(str(path), QI, SA, schema=SCHEMA).load()
    assert len(table) == 0 and table.schema is SCHEMA


def test_a_missing_file_is_a_data_source_error(tmp_path):
    for entry in ANY:
        with pytest.raises(DataSourceError, match="cannot load"):
            ENTRY_POINTS[entry](tmp_path / "absent.csv", None)


# ---------------------------------------------------- crash-safe conversion

ROWS = [[str(i % 3), str(i % 2), str(i % 4)] for i in range(10)]


def test_a_failed_reconversion_leaves_the_old_store_byte_identical(tmp_path):
    good = write_csv(tmp_path / "good.csv", ["a", "b", "s"], ROWS)
    bad = write_csv(tmp_path / "bad.csv", ["a", "b", "s"], ROWS[:-1] + [["1", "2"]])
    store = tmp_path / "store"
    fingerprint = ColumnStore.convert_csv(good, store, QI, SA).fingerprint()
    before = store_bytes(store)
    with pytest.raises(DataSourceError, match="list index out of range"):
        ColumnStore.convert_csv(bad, store, QI, SA)
    assert store_bytes(store) == before
    assert ColumnStore.mmap(store).fingerprint() == fingerprint
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["bad.csv", "good.csv", "store"]


def test_a_reconversion_replaces_the_store(tmp_path):
    first = write_csv(tmp_path / "first.csv", ["a", "b", "s"], ROWS)
    second = write_csv(tmp_path / "second.csv", ["a", "b", "s"], ROWS[::-1] + ROWS)
    store = tmp_path / "store"
    ColumnStore.convert_csv(first, store, QI, SA)
    converted = ColumnStore.convert_csv(second, store, QI, SA)
    assert converted.n == 20
    assert converted.fingerprint() == CsvSource(str(second), QI, SA).load().fingerprint()
    assert sorted(entry.name for entry in tmp_path.iterdir()) == ["first.csv", "second.csv", "store"]


def test_conversion_deletes_staging_left_by_dead_writers(tmp_path):
    good = write_csv(tmp_path / "good.csv", ["a", "b", "s"], ROWS)
    dead_pid = int(subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    ).stdout)
    dead = tmp_path / f".store.tmp-{dead_pid}-x"
    live = tmp_path / f".store.tmp-{os.getpid()}-x"
    other = tmp_path / f".other.tmp-{dead_pid}-x"
    for directory in (dead, live, other):
        directory.mkdir()
    ColumnStore.convert_csv(good, tmp_path / "store", QI, SA)
    assert not dead.exists()
    assert live.exists() and other.exists()
