"""Dataset adapters: one loading interface over CSV, synthetic and in-memory data.

A :class:`DataSource` is a recipe for obtaining an encoded
:class:`~repro.dataset.table.Table`.  The engine, harness and CLI all accept
sources rather than tables or file paths, so the same run plan works for

* :class:`CsvSource` — a CSV file with a header row; the schema (attribute
  domains) is inferred from the observed values unless supplied.  A load
  decodes the file in one pass (:class:`CsvDecoder`, the package's one
  decoder of input CSV rows);
* :class:`SyntheticSource` — the seeded census-like SAL / OCC generators used
  by the experiments;
* :class:`TableSource` — an already-built (possibly columnar) in-memory table.

A CSV too large for memory goes through a column store instead
(:meth:`ColumnStore.convert_csv
<repro.engine.columnstore.ColumnStore.convert_csv>`, the same decoder
writing into memory-mapped buffers).
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

import numpy as np

from repro.dataset.synthetic import CensusConfig, make_occ, make_sal
from repro.dataset.table import Attribute, Schema, Table
from repro.errors import DataSourceError
from repro.obs import trace

__all__ = [
    "CsvDecoder",
    "CsvSource",
    "DataSource",
    "SyntheticSource",
    "TableSource",
]


class DataSource(ABC):
    """A recipe for loading one encoded microdata table."""

    @property
    @abstractmethod
    def label(self) -> str:
        """Short human-readable name used in run records and reports."""

    @abstractmethod
    def load(self) -> Table:
        """Materialize the full table."""


#: Rows per ``csv.reader`` batch of :class:`CsvDecoder`.  Kept small on
#: purpose: a batch's row lists stay live while it is encoded, and the cyclic
#: collector rescans every live list, so large batches cost more than they save.
CSV_BATCH_ROWS = 4_096


def _column_positions(path: str, header: list[str], names: Sequence[str]) -> list[int]:
    missing = [name for name in names if name not in header]
    if missing:
        raise DataSourceError(f"{path}: columns {missing} not in header {header}")
    return [header.index(name) for name in names]


class _FirstSeen(dict):
    """Label -> code, giving each unseen label the next code."""

    def __missing__(self, label: str) -> int:
        code = self[label] = len(self)
        return code


class CsvDecoder:
    """One pass over a CSV file into ``int32`` codes: the QI columns, then the SA.

    Each column encodes through a label dictionary.  Without a schema the
    dictionaries hand out codes in first-seen order, and :meth:`remap` then
    builds the sorted domains of the observed values and rewrites the codes
    into them, one batch of rows at a time.  With a schema the dictionaries
    are its domains, a value outside one raises
    :class:`~repro.dataset.table.DomainError`, and nothing is remapped.
    """

    def __init__(
        self,
        path: str,
        qi_names: Sequence[str],
        sa_name: str,
        schema: Schema | None = None,
        delimiter: str = ",",
    ) -> None:
        self.path = str(path)
        self.names = (*qi_names, sa_name)
        self.schema = schema
        self.delimiter = delimiter
        if schema is None:
            self._indexes: list[dict] = [_FirstSeen() for _ in self.names]
        else:
            self._attributes = [*map(schema.qi_attribute, qi_names), schema.sensitive]
            self._indexes = [
                {value: code for code, value in enumerate(attribute.values)}
                for attribute in self._attributes
            ]
        #: Data rows decoded so far.
        self.rows = 0

    def batches(self, batch_rows: int = CSV_BATCH_ROWS) -> Iterator[np.ndarray]:
        """Yield one ``(rows, d + 1)`` code block per batch of at most ``batch_rows`` rows."""
        if batch_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {batch_rows}")
        try:
            with open(self.path, newline="") as handle:
                reader = csv.reader(handle, delimiter=self.delimiter)
                header = next(reader, None)
                if header is None:
                    raise DataSourceError(f"{self.path}: empty CSV file (no header row)")
                positions = _column_positions(self.path, header, self.names)
                columns = list(enumerate(zip(map(itemgetter, positions), self._indexes)))
                while rows := list(islice(reader, batch_rows)):
                    block = np.empty((len(rows), len(columns)), dtype=np.int32)
                    for column, (getter, index) in columns:
                        try:
                            block[:, column] = np.fromiter(
                                map(index.__getitem__, map(getter, rows)),
                                dtype=np.int32,
                                count=len(rows),
                            )
                        except KeyError as error:  # only a supplied schema misses
                            self._attributes[column].encode(error.args[0])
                            raise
                    self.rows += len(rows)
                    yield block
        except (OSError, IndexError) as error:  # IndexError: a short or blank row
            raise DataSourceError(f"cannot load {self.path}: {error}") from error

    def remap(
        self, qi: np.ndarray, sa: np.ndarray, batch_rows: int = CSV_BATCH_ROWS
    ) -> Schema:
        """The decoded table's schema; rewrites first-seen codes in place.

        ``qi`` and ``sa`` hold every decoded block in order.  Codes are
        rewritten ``batch_rows`` rows at a time, so a memory-mapped target
        never needs a whole column of temporaries.  A supplied schema is
        returned as-is, its codes already final.
        """
        if self.schema is not None:
            return self.schema
        if not self.rows:
            raise DataSourceError(
                f"{self.path}: no rows to infer a domain for {self.names[0]!r}"
            )
        attributes = [
            Attribute.from_values(name, index)
            for name, index in zip(self.names, self._indexes)
        ]
        # Dictionary order is code order, so each table maps first-seen -> sorted.
        tables = [
            np.fromiter(map(attribute.encode, index), dtype=np.int32, count=len(index))
            for attribute, index in zip(attributes, self._indexes)
        ]
        for start in range(0, len(sa), batch_rows):
            rows = qi[start : start + batch_rows]
            for column, table in enumerate(tables[:-1]):
                rows[:, column] = table[rows[:, column]]
            sa[start : start + batch_rows] = tables[-1][sa[start : start + batch_rows]]
        return Schema(qi=tuple(attributes[:-1]), sensitive=attributes[-1])

    def decode(self, batch_rows: int = CSV_BATCH_ROWS) -> tuple[Schema, np.ndarray, np.ndarray]:
        """Decode the whole file in memory: ``(schema, qi, sa)``."""
        with trace.span("parse"):
            blocks = list(self.batches(batch_rows))
        codes = np.concatenate(blocks) if blocks else np.empty((0, len(self.names)), np.int32)
        qi, sa = codes[:, :-1], codes[:, -1]
        with trace.span("remap"):
            schema = self.remap(qi, sa, batch_rows)
        return schema, qi, sa


@dataclass(frozen=True)
class CsvSource(DataSource):
    """A CSV file with a header row, encoded against an inferred or given schema.

    :meth:`load` decodes the file in one pass (:class:`CsvDecoder`).
    """

    path: str
    qi_names: tuple[str, ...]
    sa_name: str
    schema: Schema | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        object.__setattr__(self, "qi_names", tuple(self.qi_names))

    @property
    def label(self) -> str:
        return self.path

    def load(self) -> Table:
        """Materialize the full table in one decoding pass."""
        decoder = CsvDecoder(
            self.path, self.qi_names, self.sa_name, self.schema, self.delimiter
        )
        schema, qi, sa = decoder.decode()
        # The label dictionaries are the validation: every code is in-domain.
        return Table.from_arrays(schema, qi, sa, validate=False)


@dataclass(frozen=True)
class SyntheticSource(DataSource):
    """A seeded synthetic census table (the SAL / OCC generators)."""

    dataset: str = "SAL"
    n: int = 10_000
    seed: int = 7
    config: CensusConfig | None = None
    #: Optional projection onto the first ``dimension`` QI attributes.
    dimension: int | None = None

    def __post_init__(self) -> None:
        if self.dataset.upper() not in ("SAL", "OCC"):
            raise DataSourceError(f"unknown synthetic dataset {self.dataset!r}")

    @property
    def label(self) -> str:
        suffix = f"-{self.dimension}" if self.dimension is not None else ""
        return f"{self.dataset.upper()}{suffix}@{self.n}"

    def load(self) -> Table:
        maker = make_sal if self.dataset.upper() == "SAL" else make_occ
        table = maker(self.n, seed=self.seed, config=self.config or CensusConfig())
        if self.dimension is not None:
            table = table.project(table.schema.qi_names[: self.dimension])
        return table


@dataclass(frozen=True)
class TableSource(DataSource):
    """An in-memory (row-wise or columnar) table, adapted to the source interface."""

    table: Table
    name: str = "memory"

    @property
    def label(self) -> str:
        return self.name

    def load(self) -> Table:
        return self.table
