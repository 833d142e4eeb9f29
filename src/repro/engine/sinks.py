"""Output adapters: incremental CSV export of published tables.

The mirror image of :mod:`repro.engine.sources`: a :class:`CsvSink` writes
published generalized tables to a CSV file **incrementally** — header
first, then any number of tables — so the streaming pipeline can emit each
anonymized shard as soon as it is finished instead of materializing the
whole published table.  The CLI, the job service and the streaming
pipeline all export through it, and every table renders through its
:class:`~repro.engine.columnstore.ResultArtifact` — the same renderer the
server streams results from — a bounded chunk of rows at a time:

* exact cells decode to their raw value;
* suppressed cells render as ``*``;
* sub-domain cells (TDS / Mondrian) render as ``{a|b|c}`` over the sorted
  decoded values (:func:`render_cell_value`).
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.dataset.generalized import GeneralizedTable
from repro.dataset.table import Schema
from repro.engine.columnstore import ResultArtifact

__all__ = ["CsvSink", "render_cell_value"]


def render_cell_value(value: object) -> object:
    """Render one decoded cell value for CSV export."""
    if isinstance(value, tuple):
        return "{" + "|".join(str(item) for item in value) + "}"
    return value


class CsvSink:
    """Writes published generalized rows to a CSV file, table by table.

    Usage::

        with CsvSink(path) as sink:
            sink.open(schema)
            for generalized in shard_outputs:
                sink.write_table(generalized)
    """

    def __init__(self, path: str | Path, delimiter: str = ",") -> None:
        self.path = str(path)
        self.delimiter = delimiter
        self._handle = None
        self._writer = None
        self.rows_written = 0

    def open(self, schema: Schema) -> "CsvSink":
        """Open the file and write the header row for ``schema``."""
        if self._writer is not None:
            raise ValueError(f"sink for {self.path} is already open")
        self._handle = open(self.path, "w", newline="")
        self._writer = csv.writer(self._handle, delimiter=self.delimiter)
        self._writer.writerow(list(schema.qi_names) + [schema.sensitive.name])
        return self

    def write_table(self, generalized: GeneralizedTable) -> int:
        """Append every row of ``generalized``; returns the rows written."""
        if self._writer is None:
            self.open(generalized.schema)
        artifact = ResultArtifact.from_generalized(generalized)
        self._writer.writerows(artifact.iter_rows())
        self.rows_written += artifact.n
        return artifact.n

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._writer = None

    def __enter__(self) -> "CsvSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsvSink({self.path!r}, rows_written={self.rows_written})"
