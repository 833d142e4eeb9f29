"""Row-level rendering oracle for published tables.

A test-local copy of the historical renderer: every row is decoded through
``GeneralizedTable.decoded_record`` and written with ``csv.DictWriter``
(the export path) or rendered to strings (the JSON result rows).  The
production code renders through ``ResultArtifact`` instead; this module
shares none of that code, so byte equality against it is a real check.
"""

from __future__ import annotations

import csv
import io


def _render(value: object) -> object:
    if isinstance(value, tuple):  # a sub-domain: its sorted decoded values
        return "{" + "|".join(str(item) for item in value) + "}"
    return value


def legacy_rows(generalized) -> tuple[list[str], list[list[str]]]:
    """``(header, rows)`` with every cell rendered to a string."""
    schema = generalized.schema
    header = list(schema.qi_names) + [schema.sensitive.name]
    rows = []
    for row in range(len(generalized)):
        record = generalized.decoded_record(row)
        rows.append([str(_render(record[name])) for name in header])
    return header, rows


def legacy_csv(*tables, delimiter: str = ",") -> bytes:
    """The CSV export of ``tables`` (header from the first), row by row."""
    schema = tables[0].schema
    field_names = list(schema.qi_names) + [schema.sensitive.name]
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=field_names, delimiter=delimiter)
    writer.writeheader()
    for generalized in tables:
        for row in range(len(generalized)):
            record = generalized.decoded_record(row)
            writer.writerow({name: _render(record[name]) for name in field_names})
    return buffer.getvalue().encode("utf-8")
