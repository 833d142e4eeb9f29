"""Zero-copy columnar storage: memory-mapped int32 column buffers.

A :class:`ColumnStore` is the Arrow-style physical layout of an encoded
:class:`~repro.dataset.table.Table`: one ``(n, d)`` ``int32`` QI code matrix
plus one ``(n,)`` sensitive-code vector and the schema that decodes them.  On
disk a store is a directory::

    store/
      schema.json   attribute names + ordered domains + row count
      qi.npy        (n, d) int32, C-contiguous
      sa.npy        (n,) int32

``.npy`` is the mmap-friendly format: :func:`numpy.lib.format.open_memmap`
writes it incrementally without holding the table, and ``np.load(...,
mmap_mode="r")`` reopens it as a zero-copy view, so a 10^7-row table flows
from CSV to the anonymization kernels without ever round-tripping through
Python row tuples.  :meth:`ColumnStore.table` wraps the buffers in a
``Table`` without validation (the store validated codes when it was built)
and :meth:`ColumnStore.slice` / :meth:`ColumnStore.take` give zero-copy /
fancy-indexed views for chunked pipelines.

:class:`ColumnStoreSource` adapts a store directory to the
:class:`~repro.engine.sources.DataSource` interface, which is what
``ldiversity anonymize --mmap`` and the scale benchmarks run through.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from repro.dataset.table import Attribute, Schema, Table
from repro.engine.sources import DataSource, infer_csv_schema
from repro.errors import DataSourceError

__all__ = ["ColumnStore", "ColumnStoreSource", "ResultArtifact", "StoreOrderCache"]

SCHEMA_FILE = "schema.json"
QI_FILE = "qi.npy"
SA_FILE = "sa.npy"
ORDER_FILE = "order.npy"
ORDER_META_FILE = "order.json"
FORMAT_NAME = "repro.columnstore"
FORMAT_VERSION = 1
ORDER_FORMAT_NAME = "repro.columnstore.order"
ORDER_FORMAT_VERSION = 1

#: Default CSV decode chunk during store conversion.
DEFAULT_CHUNK_ROWS = 100_000

RESULT_META_FILE = "meta.json"
RESULT_REPS_FILE = "rep_codes.npy"
RESULT_STAR_FILE = "rep_star.npy"
RESULT_GROUPS_FILE = "group_of.npy"
RESULT_SA_FILE = "sa_codes.npy"
RESULT_FORMAT_NAME = "repro.resultartifact"
RESULT_FORMAT_VERSION = 1

#: Default row chunk when streaming a result artifact as CSV.
RESULT_CSV_CHUNK_ROWS = 50_000


def _attribute_payload(attribute: Attribute) -> dict:
    for value in attribute.values:
        if not isinstance(value, (str, int, float, bool)):
            raise DataSourceError(
                f"attribute {attribute.name!r} has a non-JSON domain value "
                f"{value!r}; only str/int/float/bool domains can be stored"
            )
    return {"name": attribute.name, "values": list(attribute.values)}


def _attribute_from_payload(payload: dict) -> Attribute:
    return Attribute(payload["name"], tuple(payload["values"]))


def _load_dir(
    directory: str | Path,
    meta_file: str,
    format_name: str,
    version: int,
    array_files: Sequence[str],
    mmap_mode: str | None,
    build,
):
    """Open a directory of a versioned meta JSON plus ``.npy`` buffers and
    ``build(payload, *arrays)`` the object.  A missing, truncated, foreign,
    unknown-version or inconsistent directory raises :class:`DataSourceError`."""
    path = Path(directory)
    try:
        payload = json.loads((path / meta_file).read_text())
        if not isinstance(payload, dict) or payload.get("format") != format_name:
            raise DataSourceError(f"{path}: not a {format_name} directory")
        if payload.get("version") != version:
            raise DataSourceError(
                f"{path}: unsupported {format_name} version "
                f"{payload.get('version')!r} (expected {version})"
            )
        arrays = [np.load(path / name, mmap_mode=mmap_mode) for name in array_files]
        return build(payload, *arrays)
    except (OSError, EOFError, ValueError, KeyError, TypeError) as error:
        raise DataSourceError(f"cannot load {format_name} {path}: {error}") from error


class ColumnStore:
    """Columnar int32 buffers of one encoded table, in memory or memory-mapped."""

    def __init__(self, schema: Schema, qi: np.ndarray, sa: np.ndarray) -> None:
        # asanyarray keeps np.memmap instances intact (asarray would silently
        # rewrap them as plain ndarray views and lose the mmapped marker).
        qi = np.asanyarray(qi)
        sa = np.asanyarray(sa)
        if qi.dtype != np.int32:
            qi = qi.astype(np.int32)
        if sa.dtype != np.int32:
            sa = sa.astype(np.int32)
        if qi.ndim != 2 or qi.shape[1] != schema.dimension:
            raise ValueError(
                f"qi must have shape (n, {schema.dimension}), got {qi.shape}"
            )
        if sa.ndim != 1 or sa.shape[0] != qi.shape[0]:
            raise ValueError(
                f"sa has {sa.shape} entries but qi has {qi.shape[0]} rows"
            )
        self.schema = schema
        self.qi = qi
        self.sa = sa

    # ------------------------------------------------------------------ basics

    def __len__(self) -> int:
        return self.qi.shape[0]

    @property
    def n(self) -> int:
        return self.qi.shape[0]

    @property
    def d(self) -> int:
        return self.schema.dimension

    @property
    def mmapped(self) -> bool:
        """Whether the buffers are memory-mapped views of on-disk files."""
        return isinstance(self.qi, np.memmap) or isinstance(self.sa, np.memmap)

    @property
    def nbytes(self) -> int:
        return int(self.qi.nbytes + self.sa.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "mmap" if self.mmapped else "memory"
        return f"ColumnStore(n={self.n}, d={self.d}, {kind}, {self.nbytes} bytes)"

    # ------------------------------------------------------------------- views

    def table(self, validate: bool = False) -> Table:
        """The buffers wrapped as a (zero-copy) :class:`Table`.

        ``validate=False`` is the default because every constructor of a
        store bounds-checks codes on the way in; pass ``True`` to re-scan
        buffers of unknown provenance.
        """
        return Table.from_arrays(self.schema, self.qi, self.sa, validate=validate)

    def slice(self, start: int, stop: int) -> "ColumnStore":
        """A zero-copy view of rows ``[start, stop)`` (shares the buffers)."""
        return ColumnStore(self.schema, self.qi[start:stop], self.sa[start:stop])

    def take(self, indices: Sequence[int] | np.ndarray) -> "ColumnStore":
        """A store holding exactly the given rows (fancy indexing copies)."""
        index_array = np.asarray(indices, dtype=np.intp)
        return ColumnStore(self.schema, self.qi[index_array], self.sa[index_array])

    def iter_slices(self, chunk_rows: int) -> Iterator["ColumnStore"]:
        """Yield contiguous zero-copy slices of at most ``chunk_rows`` rows."""
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        for start in range(0, self.n, chunk_rows):
            yield self.slice(start, min(start + chunk_rows, self.n))

    def fingerprint(self) -> str:
        """The wrapped table's content hash (streams mmap buffers once)."""
        return self.table().fingerprint()

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_table(cls, table: Table) -> "ColumnStore":
        """Wrap an already-encoded table's columnar mirror (no copy)."""
        return cls(table.schema, table.qi_columns, table.sa_array)

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        qi_names: Sequence[str],
        sa_name: str,
        schema: Schema | None = None,
        delimiter: str = ",",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "ColumnStore":
        """Decode a CSV file straight into in-memory column buffers.

        The file is decoded in bounded chunks through the columnar
        :class:`~repro.engine.sources.CsvSource` reader (one schema
        inference pass, one reused decode buffer) — rows never exist as
        Python tuples.  For tables larger than RAM use :meth:`convert_csv`,
        which writes the buffers out-of-core.
        """
        from repro.engine.sources import CsvSource

        source = CsvSource(
            str(path), tuple(qi_names), sa_name, schema=schema, delimiter=delimiter
        )
        chunks = list(source.iter_chunks(chunk_rows))
        if not chunks:
            raise DataSourceError(f"{path}: no data rows to store")
        resolved = chunks[0].schema
        qi = np.concatenate([chunk.qi_columns for chunk in chunks], axis=0)
        sa = np.concatenate([chunk.sa_array for chunk in chunks])
        return cls(resolved, qi, sa)

    @classmethod
    def convert_csv(
        cls,
        csv_path: str | Path,
        store_dir: str | Path,
        qi_names: Sequence[str],
        sa_name: str,
        schema: Schema | None = None,
        delimiter: str = ",",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> "ColumnStore":
        """Convert a CSV file into an on-disk store without holding the table.

        Two streaming passes: the first infers the schema and counts rows
        (skipped when ``schema`` is given — then only the count pass runs),
        the second decodes chunks directly into
        :func:`numpy.lib.format.open_memmap` buffers.  Peak memory is one
        chunk.  Returns the finished store, memory-mapped.
        """
        from repro.engine.sources import CsvSource

        csv_path = str(csv_path)
        if schema is None:
            schema = infer_csv_schema(csv_path, qi_names, sa_name, delimiter)
        with open(csv_path, newline="") as handle:
            row_count = sum(1 for _line in handle) - 1  # header
        if row_count < 1:
            raise DataSourceError(f"{csv_path}: no data rows to store")

        directory = Path(store_dir)
        directory.mkdir(parents=True, exist_ok=True)
        qi = np.lib.format.open_memmap(
            directory / QI_FILE,
            mode="w+",
            dtype=np.int32,
            shape=(row_count, schema.dimension),
        )
        sa = np.lib.format.open_memmap(
            directory / SA_FILE, mode="w+", dtype=np.int32, shape=(row_count,)
        )
        source = CsvSource(
            csv_path, tuple(qi_names), sa_name, schema=schema, delimiter=delimiter
        )
        filled = 0
        for chunk in source.iter_chunks(chunk_rows):
            qi[filled : filled + len(chunk)] = chunk.qi_columns
            sa[filled : filled + len(chunk)] = chunk.sa_array
            filled += len(chunk)
        if filled != row_count:
            raise DataSourceError(
                f"{csv_path}: decoded {filled} rows but counted {row_count}"
            )
        qi.flush()
        sa.flush()
        cls._write_schema(directory, schema, row_count)
        return cls.mmap(directory)

    # ----------------------------------------------------------- persistence

    @staticmethod
    def _write_schema(directory: Path, schema: Schema, n: int) -> None:
        payload = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "n": n,
            "qi": [_attribute_payload(attribute) for attribute in schema.qi],
            "sensitive": _attribute_payload(schema.sensitive),
        }
        (directory / SCHEMA_FILE).write_text(json.dumps(payload, indent=2))

    def save(self, store_dir: str | Path) -> Path:
        """Write the store to a directory (creating it) and return the path."""
        directory = Path(store_dir)
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / QI_FILE, np.ascontiguousarray(self.qi, dtype=np.int32))
        np.save(directory / SA_FILE, np.ascontiguousarray(self.sa, dtype=np.int32))
        self._write_schema(directory, self.schema, self.n)
        return directory

    @classmethod
    def _open(cls, store_dir: str | Path, mmap_mode: str | None) -> "ColumnStore":
        def build(payload: dict, qi: np.ndarray, sa: np.ndarray) -> "ColumnStore":
            schema = Schema(
                qi=tuple(_attribute_from_payload(entry) for entry in payload["qi"]),
                sensitive=_attribute_from_payload(payload["sensitive"]),
            )
            n = int(payload["n"])
            if qi.shape[0] != n or sa.shape[0] != n:
                raise DataSourceError(
                    f"{store_dir}: schema says {n} rows but buffers hold "
                    f"{qi.shape[0]}/{sa.shape[0]}"
                )
            return cls(schema, qi, sa)

        return _load_dir(
            store_dir, SCHEMA_FILE, FORMAT_NAME, FORMAT_VERSION, (QI_FILE, SA_FILE),
            mmap_mode, build,
        )

    @classmethod
    def mmap(cls, store_dir: str | Path) -> "ColumnStore":
        """Open an on-disk store as read-only zero-copy memory maps."""
        return cls._open(store_dir, mmap_mode="r")

    @classmethod
    def load(cls, store_dir: str | Path) -> "ColumnStore":
        """Read an on-disk store fully into memory."""
        return cls._open(store_dir, mmap_mode=None)

    @staticmethod
    def is_store_dir(path: str | Path) -> bool:
        """Whether ``path`` looks like a saved column store directory."""
        directory = Path(path)
        return (
            directory.is_dir()
            and (directory / SCHEMA_FILE).is_file()
            and (directory / QI_FILE).is_file()
            and (directory / SA_FILE).is_file()
        )


class ResultArtifact:
    """A published table's one result form, in memory or on disk.

    Under Definition 1 every published row is its QI-group's cells plus the
    row's own SA value, so the artifact holds the *group-level* form —
    per-group QI codes and star flags, the row→group map and the SA codes
    (:meth:`GeneralizedTable.columnar_publish
    <repro.dataset.generalized.GeneralizedTable.columnar_publish>`) — plus
    the pre-rendered per-code string tables needed to decode them.  Every
    published table renders through it: :class:`~repro.engine.sinks.CsvSink`
    streams its rows into a file, and a pool worker saves it under the
    workspace instead of pickling row strings back to the server.  On disk
    an artifact is a directory::

        result/
          meta.json       header + per-attribute rendered string tables
          rep_codes.npy   (g, d) int32 surviving codes
          rep_star.npy    (g, d) bool star flags
          group_of.npy    (n,) int64 row -> group
          sa_codes.npy    (n,) int32 sensitive codes

    The server reopens it memory-mapped and streams ``?format=csv``
    responses chunk-wise.  Exact cells render as ``str(attribute.decode(code))``,
    stars as ``"*"``, and a sub-domain cell (TDS, Mondrian) as one more entry
    of its column's string table, ``{a|b}`` over its sorted decoded values.
    """

    STAR_TEXT = "*"

    def __init__(
        self,
        header: Sequence[str],
        qi_tables: Sequence[Sequence[str]],
        sa_table: Sequence[str],
        rep_codes: np.ndarray,
        rep_star: np.ndarray,
        group_of: np.ndarray,
        sa_codes: np.ndarray,
    ) -> None:
        self.header = list(header)
        self.qi_tables = [list(table) for table in qi_tables]
        self.sa_table = list(sa_table)
        self.rep_codes = np.asanyarray(rep_codes)
        self.rep_star = np.asanyarray(rep_star)
        self.group_of = np.asanyarray(group_of)
        self.sa_codes = np.asanyarray(sa_codes)
        if self.rep_codes.ndim != 2 or self.rep_star.shape != self.rep_codes.shape:
            raise ValueError(
                f"rep_codes {self.rep_codes.shape} and rep_star "
                f"{self.rep_star.shape} must be matching (g, d) matrices"
            )
        if len(self.qi_tables) != self.rep_codes.shape[1]:
            raise ValueError(
                f"{len(self.qi_tables)} QI string tables for "
                f"{self.rep_codes.shape[1]} columns"
            )
        if self.group_of.ndim != 1 or self.sa_codes.shape != self.group_of.shape:
            raise ValueError("group_of and sa_codes must be matching (n,) vectors")
        if len(self.header) != len(self.qi_tables) + 1:
            raise ValueError("header must cover every QI column plus the SA column")

    # ------------------------------------------------------------------ basics

    @property
    def n(self) -> int:
        return int(self.group_of.shape[0])

    @property
    def g(self) -> int:
        return int(self.rep_codes.shape[0])

    @property
    def d(self) -> int:
        return int(self.rep_codes.shape[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultArtifact(n={self.n}, g={self.g}, d={self.d})"

    # --------------------------------------------------------------- rendering

    def iter_rows(
        self, chunk_rows: int = RESULT_CSV_CHUNK_ROWS
    ) -> Iterator[list[str]]:
        """Every published row as rendered strings, decoding ``chunk_rows``
        codes at a time so memory stays bounded by one chunk.

        The QI cells render once per group (O(g·d) string work); every row
        of a group shares that prefix list.
        """
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        prefixes = [
            [
                self.STAR_TEXT if starred else table[code]
                for table, code, starred in zip(self.qi_tables, codes, flags)
            ]
            for codes, flags in zip(self.rep_codes.tolist(), self.rep_star.tolist())
        ]
        sa_table = self.sa_table
        for start in range(0, self.n, chunk_rows):
            stop = min(start + chunk_rows, self.n)
            for group, sa in zip(
                self.group_of[start:stop].tolist(), self.sa_codes[start:stop].tolist()
            ):
                yield prefixes[group] + [sa_table[sa]]

    def rows(self) -> list[list[str]]:
        """Every published row as rendered strings (the JSON result shape)."""
        return list(self.iter_rows())

    def iter_csv_chunks(
        self, chunk_rows: int = RESULT_CSV_CHUNK_ROWS
    ) -> Iterator[bytes]:
        """Stream the CSV rendering (header first) in bounded row chunks.

        ``csv.writer`` is stateless across rows, so the concatenation of the
        chunks is byte-identical to one monolithic write of the same rows.
        """
        import csv
        import io

        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        rows = self.iter_rows(chunk_rows)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.header)
        for _start in range(0, self.n, chunk_rows):
            writer.writerows(islice(rows, chunk_rows))
            yield buffer.getvalue().encode("utf-8")
            buffer.seek(0)
            buffer.truncate()
        if self.n == 0:
            yield buffer.getvalue().encode("utf-8")

    def csv_bytes(self, chunk_rows: int = RESULT_CSV_CHUNK_ROWS) -> bytes:
        return b"".join(self.iter_csv_chunks(chunk_rows))

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_generalized(cls, generalized) -> "ResultArtifact":
        """Build the artifact of any published table: suppression outputs
        (merged shards and store hits included) adopt their columnar group
        form without copying; tables with explicit cells (TDS, Mondrian,
        ``preprocess``) group by distinct cells tuple."""
        schema = generalized.schema
        header = list(schema.qi_names) + [schema.sensitive.name]
        qi_tables = [
            [str(attribute.decode(code)) for code in range(attribute.size)]
            for attribute in schema.qi
        ]
        sa_table = [
            str(schema.sensitive.decode(code))
            for code in range(schema.sensitive.size)
        ]
        columnar = generalized.columnar_publish()
        if columnar is None:
            columnar = _explicit_groups(generalized, qi_tables)
        return cls(header, qi_tables, sa_table, *columnar)

    # ----------------------------------------------------------- persistence

    def save(self, directory: str | Path) -> int:
        """Write the artifact to a directory; returns its on-disk byte size."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        np.save(path / RESULT_REPS_FILE, np.ascontiguousarray(self.rep_codes, dtype=np.int32))
        np.save(path / RESULT_STAR_FILE, np.ascontiguousarray(self.rep_star, dtype=bool))
        np.save(path / RESULT_GROUPS_FILE, np.ascontiguousarray(self.group_of, dtype=np.int64))
        np.save(path / RESULT_SA_FILE, np.ascontiguousarray(self.sa_codes, dtype=np.int32))
        payload = {
            "format": RESULT_FORMAT_NAME,
            "version": RESULT_FORMAT_VERSION,
            "n": self.n,
            "g": self.g,
            "d": self.d,
            "header": self.header,
            "star": self.STAR_TEXT,
            "qi_tables": self.qi_tables,
            "sa_table": self.sa_table,
        }
        (path / RESULT_META_FILE).write_text(json.dumps(payload))
        return sum(
            os.stat(path / name).st_size
            for name in (
                RESULT_META_FILE,
                RESULT_REPS_FILE,
                RESULT_STAR_FILE,
                RESULT_GROUPS_FILE,
                RESULT_SA_FILE,
            )
        )

    @classmethod
    def _open(cls, directory: str | Path, mmap_mode: str | None) -> "ResultArtifact":
        def build(payload: dict, *arrays: np.ndarray) -> "ResultArtifact":
            artifact = cls(
                payload["header"], payload["qi_tables"], payload["sa_table"], *arrays
            )
            if artifact.n != int(payload["n"]) or artifact.g != int(payload["g"]):
                raise DataSourceError(
                    f"{directory}: meta says n={payload['n']} g={payload['g']} but "
                    f"buffers hold n={artifact.n} g={artifact.g}"
                )
            return artifact

        return _load_dir(
            directory, RESULT_META_FILE, RESULT_FORMAT_NAME, RESULT_FORMAT_VERSION,
            (RESULT_REPS_FILE, RESULT_STAR_FILE, RESULT_GROUPS_FILE, RESULT_SA_FILE),
            mmap_mode, build,
        )

    @classmethod
    def mmap(cls, directory: str | Path) -> "ResultArtifact":
        """Open an on-disk artifact as read-only zero-copy memory maps."""
        return cls._open(directory, mmap_mode="r")

    @classmethod
    def load(cls, directory: str | Path) -> "ResultArtifact":
        """Read an on-disk artifact fully into memory."""
        return cls._open(directory, mmap_mode=None)


def _explicit_groups(generalized, qi_tables: list[list[str]]) -> tuple:
    """The group form of a table with explicit cells: one group per distinct
    cells tuple.  A sub-domain cell becomes one more entry of its column's
    string table — its sorted decoded values, as :func:`render_cell_value
    <repro.engine.sinks.render_cell_value>` renders them."""
    from repro.dataset.generalized import STAR
    from repro.engine.sinks import render_cell_value

    qi = generalized.schema.qi

    def code(position: int, cell) -> int:
        if not isinstance(cell, frozenset):
            return 0 if cell is STAR else cell
        decoded = sorted(qi[position].decode(item) for item in cell)
        qi_tables[position].append(render_cell_value(tuple(decoded)))
        return len(qi_tables[position]) - 1

    groups: dict[tuple, int] = {}
    group_of = [groups.setdefault(cells, len(groups)) for cells in generalized.cell_rows]
    shape = (len(groups), len(qi))
    rep_codes = [[code(position, cell) for position, cell in enumerate(cells)] for cells in groups]
    rep_star = [[cell is STAR for cell in cells] for cells in groups]
    return (
        np.asarray(rep_codes, dtype=np.int64).reshape(shape),
        np.asarray(rep_star, dtype=bool).reshape(shape),
        np.asarray(group_of, dtype=np.intp),
        generalized.sa_codes(),
    )


class StoreOrderCache:
    """Persists a table's ``(QI, SA)`` sort permutation beside its store.

    The :meth:`~repro.dataset.table.Table.grouping` context's dominant cost
    is the big stable sort; for a table served from an on-disk store the
    permutation is a pure function of the stored buffers, so it is written
    once as an ``order.npy`` sidecar and repeat runs skip the sort entirely
    (observable as the absence of a ``sort`` span in the run's tree — the
    warm-start CI guard).

    Validation is two-tier.  ``order.json`` records the sidecar format, the
    row count, the QI/sensitive attribute names, and cheap freshness stamps
    (size + mtime_ns) of ``qi.npy``/``sa.npy`` taken at write time; a load
    re-checks all of them, so rewriting the store invalidates the sidecar.
    The table's content fingerprint is recorded and compared only
    *opportunistically* — when the table object happens to have it cached —
    so the sidecar never forces a full-buffer hash on the hot path.  All
    writes go through a temp file + ``os.replace`` and every filesystem
    error degrades to a miss (read-only store directories simply never warm
    up).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    # ------------------------------------------------------------- internals

    def _stamps(self) -> dict[str, list[int]] | None:
        stamps: dict[str, list[int]] = {}
        for name in (QI_FILE, SA_FILE):
            try:
                stat = os.stat(self.directory / name)
            except OSError:
                return None
            stamps[name] = [int(stat.st_size), int(stat.st_mtime_ns)]
        return stamps

    @staticmethod
    def _cached_fingerprint(table: Table) -> str | None:
        return getattr(table, "_fingerprint", None)

    # ------------------------------------------------------------- hook API

    def load(self, table: Table) -> np.ndarray | None:
        """The persisted permutation for ``table``, or ``None`` on any doubt."""
        try:
            payload = json.loads((self.directory / ORDER_META_FILE).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if (
            payload.get("format") != ORDER_FORMAT_NAME
            or payload.get("version") != ORDER_FORMAT_VERSION
            or payload.get("n") != len(table)
            or payload.get("qi") != list(table.schema.qi_names)
            or payload.get("sensitive") != table.schema.sensitive.name
        ):
            return None
        if payload.get("stamps") != self._stamps():
            return None
        recorded = payload.get("fingerprint")
        cached = self._cached_fingerprint(table)
        if recorded is not None and cached is not None and recorded != cached:
            return None
        try:
            order = np.load(self.directory / ORDER_FILE)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(order, np.ndarray)
            or order.ndim != 1
            or order.shape[0] != len(table)
            or not np.issubdtype(order.dtype, np.integer)
        ):
            return None
        return order.astype(np.intp, copy=False)

    def store(self, table: Table, order: np.ndarray) -> None:
        """Persist a freshly computed permutation (best-effort, atomic)."""
        stamps = self._stamps()
        if stamps is None:
            return
        payload = {
            "format": ORDER_FORMAT_NAME,
            "version": ORDER_FORMAT_VERSION,
            "n": len(table),
            "qi": list(table.schema.qi_names),
            "sensitive": table.schema.sensitive.name,
            "stamps": stamps,
            "fingerprint": self._cached_fingerprint(table),
        }
        order_tmp = self.directory / ("." + ORDER_FILE + ".tmp.npy")
        meta_tmp = self.directory / ("." + ORDER_META_FILE + ".tmp")
        try:
            np.save(order_tmp, np.ascontiguousarray(order, dtype=np.intp))
            os.replace(order_tmp, self.directory / ORDER_FILE)
            meta_tmp.write_text(json.dumps(payload, indent=2))
            os.replace(meta_tmp, self.directory / ORDER_META_FILE)
        except OSError:
            for leftover in (order_tmp, meta_tmp):
                try:
                    leftover.unlink()
                except OSError:
                    pass


@dataclass(frozen=True)
class ColumnStoreSource(DataSource):
    """A saved :class:`ColumnStore` directory as a :class:`DataSource`.

    ``mmap=True`` (the default) opens the buffers as zero-copy memory maps —
    the ``--mmap`` execution path; ``mmap=False`` reads them into memory.
    Chunked iteration yields zero-copy slice views either way.  Full-table
    loads attach a :class:`StoreOrderCache`, so the first run's ``(QI, SA)``
    sort permutation persists beside the store and repeat runs skip the
    sort.
    """

    path: str
    mmap: bool = True

    @property
    def label(self) -> str:
        return self.path

    def store(self) -> ColumnStore:
        if self.mmap:
            return ColumnStore.mmap(self.path)
        return ColumnStore.load(self.path)

    def load(self) -> Table:
        table = self.store().table()
        table.attach_order_cache(StoreOrderCache(self.path))
        return table

    def iter_chunks(self, chunk_rows: int) -> Iterator[Table]:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        for piece in self.store().iter_slices(chunk_rows):
            yield piece.table()
