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
Python row tuples.  :meth:`ColumnStore.convert_csv` decodes the CSV in one
pass (:class:`~repro.engine.sources.CsvDecoder`) into a sibling temp
directory.  :meth:`ColumnStore.table`
wraps the buffers in a ``Table`` without validation (the store validated
codes when it was built) and :meth:`ColumnStore.iter_slices` gives the
zero-copy row slices the streaming pipeline reads.

:class:`ColumnStoreSource` adapts a store directory to the
:class:`~repro.engine.sources.DataSource` interface, which is what
``ldiversity anonymize --mmap`` and the scale benchmarks run through.

Every on-disk writer of the package goes through :func:`publish` and every
directory reader through :func:`_load_dir`, so this module owns both halves.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import uuid
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from repro.dataset.table import Attribute, Schema, Table
from repro.engine.sources import CSV_BATCH_ROWS, CsvDecoder, DataSource
from repro.errors import DataSourceError
from repro.obs import trace

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

RESULT_META_FILE = "meta.json"
RESULT_REPS_FILE = "rep_codes.npy"
RESULT_STAR_FILE = "rep_star.npy"
RESULT_GROUPS_FILE = "group_of.npy"
RESULT_SA_FILE = "sa_codes.npy"
RESULT_ARRAY_FILES = (RESULT_REPS_FILE, RESULT_STAR_FILE, RESULT_GROUPS_FILE, RESULT_SA_FILE)
RESULT_DTYPES = (np.int32, bool, np.int64, np.int32)
RESULT_FORMAT_NAME = "repro.resultartifact"
RESULT_FORMAT_VERSION = 2

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


#: A publish in progress: ``.<target name>.tmp-<pid>-<random>`` beside its target.
_TEMP_NAME = re.compile(r"\.(.+)\.tmp-(\d+)-[^/]*")


def is_temp(name: str) -> bool:
    """Whether a directory entry is a :func:`publish` temp (live or left by a
    killed writer), not a published file or directory."""
    return _TEMP_NAME.fullmatch(name) is not None


def _remove(path: str | Path) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path, ignore_errors=True)
    else:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def sweep_temps(directory: str | Path, name: str | None = None) -> None:
    """Delete the temps in ``directory`` whose writing process is gone (only
    those of target ``name`` when given); a live writer's temps stay."""
    for entry in list(os.scandir(directory)):
        match = _TEMP_NAME.fullmatch(entry.name)
        if match and name in (None, match[1]) and not _alive(int(match[2])):
            _remove(entry.path)


def _save_npy(path: Path, array: np.ndarray) -> None:
    with open(path, "wb") as handle:  # np.save would append ".npy" to a temp name
        np.save(handle, array)


def _truncate_npy(path: Path, array: np.memmap, rows: int) -> np.memmap:
    """Rewrite the ``.npy`` buffer ``array`` maps at ``path`` to its first
    ``rows`` rows; returns the new buffer, mapped for writing."""
    array.flush()
    part = path.with_name(path.name + ".part")
    _save_npy(part, array[:rows])
    os.replace(part, path)
    return np.load(path, mmap_mode="r+")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


def _fsync(path: Path) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def publish(target: str | Path, write: Callable[[Path], object]) -> Path:
    """Atomically create or replace the file or directory ``target``.

    ``write(temp)`` builds the new version at a sibling temp path; it is
    fsynced (each file of a directory, then the directory), renamed over
    ``target``, and the parent fsynced.  An existing directory is renamed
    aside first and deleted last, so a reader finds the old version, the new
    one, or (only between those two renames) nothing — never a mix.  If
    ``write`` raises, ``target`` is untouched; every temp is deleted, or
    swept by the next publish of ``target`` once its writer is dead.
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    sweep_temps(target.parent, target.name)
    temp = f".{target.name}.tmp-{os.getpid()}-{uuid.uuid4().hex}"
    new, old = target.with_name(temp + "n"), target.with_name(temp + "o")
    try:
        write(new)
        if new.is_dir():
            for name in os.listdir(new):
                _fsync(new / name)
        _fsync(new)
        if new.is_dir() and target.is_dir():
            os.rename(target, old)
        os.replace(new, target)
        _fsync(target.parent)
    finally:
        _remove(new)
        _remove(old)
    return target


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
    def convert_csv(
        cls,
        csv_path: str | Path,
        store_dir: str | Path,
        qi_names: Sequence[str],
        sa_name: str,
        schema: Schema | None = None,
        delimiter: str = ",",
        chunk_rows: int = CSV_BATCH_ROWS,
    ) -> "ColumnStore":
        """Convert a CSV file into an on-disk store without holding the table.

        A line count sizes the buffers, then one decoding pass
        (:class:`~repro.engine.sources.CsvDecoder`, batches of ``chunk_rows``
        rows) writes first-seen codes straight into
        :func:`numpy.lib.format.open_memmap` buffers, which are then remapped
        to the sorted domains one batch at a time (no remap when ``schema``
        is given).  Peak memory is one batch of rows.  A quoted field that
        spans lines makes the line count overshoot; the buffers are then
        rewritten to the rows decoded.

        The store is built in a temp directory that :func:`publish` renames
        over ``store_dir`` whole, so a failed or killed conversion leaves an
        existing store as it was.  Returns the finished store, memory-mapped.
        """
        csv_path = str(csv_path)
        decoder = CsvDecoder(csv_path, qi_names, sa_name, schema, delimiter)
        try:
            with open(csv_path, newline="") as handle:
                row_count = sum(1 for _line in handle) - 1  # header
        except OSError as error:
            raise DataSourceError(f"cannot load {csv_path}: {error}") from error
        if row_count < 1:
            if schema is None:
                decoder.decode()  # raises the inference error: no header or no rows
            raise DataSourceError(f"{csv_path}: no data rows to store")

        def write(staging: Path) -> None:
            staging.mkdir()
            qi = np.lib.format.open_memmap(
                staging / QI_FILE,
                mode="w+",
                dtype=np.int32,
                shape=(row_count, len(qi_names)),
            )
            sa = np.lib.format.open_memmap(
                staging / SA_FILE, mode="w+", dtype=np.int32, shape=(row_count,)
            )
            filled = 0
            with trace.span("parse"):
                for block in decoder.batches(chunk_rows):
                    qi[filled : filled + len(block)] = block[:, :-1]
                    sa[filled : filled + len(block)] = block[:, -1]
                    filled += len(block)
            if not filled:
                raise DataSourceError(f"{csv_path}: no data rows to store")
            if filled < row_count:
                qi = _truncate_npy(staging / QI_FILE, qi, filled)
                sa = _truncate_npy(staging / SA_FILE, sa, filled)
            with trace.span("remap"):
                remapped = decoder.remap(qi, sa, chunk_rows)
            qi.flush()
            sa.flush()
            cls._write_schema(staging, remapped, filled)

        return cls.mmap(publish(store_dir, write))

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
        """Publish the store to a directory (replacing any old one); returns it."""

        def write(directory: Path) -> None:
            directory.mkdir()
            np.save(directory / QI_FILE, np.ascontiguousarray(self.qi, dtype=np.int32))
            np.save(directory / SA_FILE, np.ascontiguousarray(self.sa, dtype=np.int32))
            self._write_schema(directory, self.schema, self.n)

        return publish(store_dir, write)

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
    of its column's string table, ``{a|b}`` over its sorted decoded values,
    whose codes :attr:`subdomains` keeps.  :attr:`meta` carries more
    ``meta.json`` fields: a :class:`~repro.service.store.RunStore` record is
    an artifact with its key and run statistics there.
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
        #: Per QI column, the sorted codes behind the last
        #: ``len(subdomains[c])`` entries of ``qi_tables[c]`` (sub-domain cells).
        self.subdomains: list[list[list[int]]] = [[] for _ in self.qi_tables]
        #: Every field of the ``meta.json`` it was opened from; saved too.
        self.meta: dict = {}

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
        if columnar is not None:
            return cls(header, qi_tables, sa_table, *columnar)
        *columnar, subdomains = _explicit_groups(generalized, qi_tables)
        artifact = cls(header, qi_tables, sa_table, *columnar)
        artifact.subdomains = subdomains
        return artifact

    # ----------------------------------------------------------- persistence

    def save(self, directory: str | Path) -> int:
        """Publish the artifact to a directory; returns its on-disk byte size."""
        arrays = (self.rep_codes, self.rep_star, self.group_of, self.sa_codes)
        payload = {
            **self.meta,
            "format": RESULT_FORMAT_NAME,
            "version": RESULT_FORMAT_VERSION,
            "n": self.n,
            "g": self.g,
            "d": self.d,
            "header": self.header,
            "star": self.STAR_TEXT,
            "qi_tables": self.qi_tables,
            "sa_table": self.sa_table,
            "subdomains": self.subdomains,
        }

        def write(path: Path) -> None:
            path.mkdir()
            for name, array, dtype in zip(RESULT_ARRAY_FILES, arrays, RESULT_DTYPES):
                np.save(path / name, np.ascontiguousarray(array, dtype=dtype))
            (path / RESULT_META_FILE).write_text(json.dumps(payload))

        path = publish(directory, write)
        return sum(
            os.stat(path / name).st_size for name in (RESULT_META_FILE, *RESULT_ARRAY_FILES)
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
            artifact.subdomains, artifact.meta = payload["subdomains"], payload
            return artifact

        return _load_dir(
            directory, RESULT_META_FILE, RESULT_FORMAT_NAME, RESULT_FORMAT_VERSION,
            RESULT_ARRAY_FILES, mmap_mode, build,
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
    """The group form of a table with explicit cells, one group per distinct
    ``(group id, cells)``, plus its sub-domain codes.  A sub-domain cell
    becomes one more entry of its column's string table — its sorted decoded
    values, as :func:`render_cell_value <repro.engine.sinks.render_cell_value>`
    renders them."""
    from repro.dataset.generalized import STAR
    from repro.engine.sinks import render_cell_value

    qi = generalized.schema.qi
    subdomains: list[list[list[int]]] = [[] for _ in qi]

    def code(position: int, cell) -> int:
        if not isinstance(cell, frozenset):
            return 0 if cell is STAR else cell
        decoded = sorted(qi[position].decode(item) for item in cell)
        qi_tables[position].append(render_cell_value(tuple(decoded)))
        subdomains[position].append(sorted(cell))
        return len(qi_tables[position]) - 1

    groups: dict[tuple, int] = {}
    keys = zip(generalized.group_ids, generalized.cell_rows)
    group_of = [groups.setdefault(key, len(groups)) for key in keys]
    shape = (len(groups), len(qi))
    rep_codes = [[code(column, cell) for column, cell in enumerate(cells)] for _, cells in groups]
    rep_star = [[cell is STAR for cell in cells] for _, cells in groups]
    return (
        np.asarray(rep_codes, dtype=np.int64).reshape(shape),
        np.asarray(rep_star, dtype=bool).reshape(shape),
        np.asarray(group_of, dtype=np.intp),
        generalized.sa_codes(),
        subdomains,
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
    so the sidecar never forces a full-buffer hash on the hot path.  Both
    files are published, ``order.npy`` first, so ``order.json`` only ever
    describes a whole permutation, and every filesystem error degrades to a
    miss (read-only store directories simply never warm up).
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
        order = np.ascontiguousarray(order, dtype=np.intp)
        with contextlib.suppress(OSError):
            publish(self.directory / ORDER_FILE, lambda path: _save_npy(path, order))
            publish(
                self.directory / ORDER_META_FILE,
                lambda path: path.write_text(json.dumps(payload, indent=2)),
            )


@dataclass(frozen=True)
class ColumnStoreSource(DataSource):
    """A saved :class:`ColumnStore` directory as a :class:`DataSource`.

    ``mmap=True`` (the default) opens the buffers as zero-copy memory maps —
    the ``--mmap`` execution path; ``mmap=False`` reads them into memory.
    Loads attach a :class:`StoreOrderCache`, so the first run's ``(QI, SA)``
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
