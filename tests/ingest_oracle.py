"""Two-pass CSV ingest oracle: infer the domains, then encode cell by cell.

A test-local copy of the historical ingest: one ``csv.DictReader`` pass
collects each column's label set and sorts it into a domain, and a second
``csv.reader`` pass encodes every cell through ``Attribute.encode``.  The production code decodes in one pass through
``CsvDecoder`` instead; this module shares none of its code, so equality
against it is a real check.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.dataset.table import Attribute, Schema, Table
from repro.engine.columnstore import ColumnStore
from repro.errors import DataSourceError


def oracle_schema(path, qi_names, sa_name, delimiter=",") -> Schema:
    """Each column's domain: the sorted set of the labels it holds."""
    observed = {name: set() for name in (*qi_names, sa_name)}
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None:
            raise DataSourceError(f"{path}: empty CSV file (no header row)")
        missing = [name for name in observed if name not in reader.fieldnames]
        if missing:
            raise DataSourceError(f"{path}: columns {missing} not in header {reader.fieldnames}")
        for row in reader:
            for name, values in observed.items():
                values.add(row[name])
    for name, values in observed.items():
        if not values:
            raise DataSourceError(f"{path}: no rows to infer a domain for {name!r}")
    return Schema(
        qi=tuple(Attribute.from_values(name, observed[name]) for name in qi_names),
        sensitive=Attribute.from_values(sa_name, observed[sa_name]),
    )


def oracle_codes(path, qi_names, sa_name, schema=None, delimiter=","):
    """``(schema, qi, sa)``: the inferred (or given) schema, then per-cell codes."""
    if schema is None:
        schema = oracle_schema(path, qi_names, sa_name, delimiter)
    attributes = [schema.qi_attribute(name) for name in qi_names] + [schema.sensitive]
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader)
        positions = [header.index(name) for name in (*qi_names, sa_name)]
        try:
            codes = [
                [attribute.encode(record[position])
                 for attribute, position in zip(attributes, positions)]
                for record in reader
            ]
        except IndexError as error:
            raise DataSourceError(f"cannot load {path}: {error}") from error
    array = np.array(codes, dtype=np.int32).reshape(len(codes), len(attributes))
    return schema, array[:, :-1], array[:, -1]


def oracle_table(path, qi_names, sa_name, schema=None, delimiter=",") -> Table:
    schema, qi, sa = oracle_codes(path, qi_names, sa_name, schema, delimiter)
    return Table.from_arrays(schema, qi, sa)


def oracle_store(csv_path, store_dir, qi_names, sa_name, schema=None, delimiter=",") -> Path:
    """Write the store of the file's rows, refusing a file without any."""
    schema, qi, sa = oracle_codes(csv_path, qi_names, sa_name, schema, delimiter)
    if not len(sa):
        raise DataSourceError(f"{csv_path}: no data rows to store")
    return ColumnStore(schema, qi, sa).save(store_dir)
