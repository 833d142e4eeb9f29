"""Categorical microdata tables.

The paper (Section 3) models the microdata ``T`` as a table with ``d``
categorical quasi-identifier (QI) attributes ``A_1..A_d`` and one categorical
sensitive attribute (SA) ``B``.  This module provides that substrate:

* :class:`Attribute` — a named categorical attribute with an ordered domain,
  responsible for encoding raw values to small integer codes;
* :class:`Schema` — the QI attributes plus the sensitive attribute;
* :class:`Table` — an encoded microdata table with the operations the
  algorithms and experiments need (projection, sampling, grouping by QI
  vector, eligibility checks).

Rows are stored columns-first: a single ``(n, d)`` ``numpy.int32`` matrix of
QI codes plus an ``(n,)`` sensitive-value array, which is what the data plane
(QI-grouping, the three-phase state, suppression, Hilbert keys, metrics)
consumes.  Row tuples (``qi_rows`` / ``sa_values``) are derived from the
columns on first read, for the few per-row consumers (baselines, display).

Encoding once up front keeps the anonymization algorithms allocation-free and
makes equality checks cheap, which matters because the three-phase algorithm
and the baselines repeatedly group and compare rows.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs import trace

__all__ = ["Attribute", "Schema", "Table"]


class DomainError(ValueError):
    """Raised when a value does not belong to an attribute's domain."""


@dataclass(frozen=True)
class Attribute:
    """A categorical attribute with an ordered, finite domain.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"Age"``.
    values:
        The ordered domain.  Order matters for the Hilbert baseline (locality
        on the curve) and for building generalization hierarchies, so callers
        should pass values in their natural order when one exists.
    """

    name: str
    values: tuple[Any, ...]
    _index: dict[Any, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"attribute {self.name!r} has an empty domain")
        index = {value: code for code, value in enumerate(self.values)}
        if len(index) != len(self.values):
            raise ValueError(f"attribute {self.name!r} has duplicate domain values")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        """Number of values in the domain (``|dom(A)|``)."""
        return len(self.values)

    def encode(self, value: Any) -> int:
        """Return the integer code of ``value``.

        Raises
        ------
        DomainError
            If ``value`` is not in the domain.
        """
        try:
            return self._index[value]
        except KeyError:
            raise DomainError(
                f"value {value!r} is not in the domain of attribute {self.name!r}"
            ) from None

    def decode(self, code: int) -> Any:
        """Return the raw value for an integer ``code``."""
        return self.values[code]

    def __contains__(self, value: Any) -> bool:
        return value in self._index

    @classmethod
    def from_values(cls, name: str, observed: Iterable[Any]) -> "Attribute":
        """Build an attribute whose domain is the sorted set of ``observed`` values."""
        seen = set(observed)
        try:
            ordered = tuple(sorted(seen))
        except TypeError:  # mixed, unorderable types: fall back to string order
            ordered = tuple(sorted(seen, key=repr))
        return cls(name, ordered)


@dataclass(frozen=True)
class Schema:
    """The shape of a microdata table: QI attributes plus the sensitive attribute."""

    qi: tuple[Attribute, ...]
    sensitive: Attribute

    def __post_init__(self) -> None:
        names = [attribute.name for attribute in self.qi] + [self.sensitive.name]
        if len(set(names)) != len(names):
            raise ValueError(f"schema has duplicate attribute names: {names}")

    @property
    def dimension(self) -> int:
        """The number ``d`` of QI attributes."""
        return len(self.qi)

    @property
    def qi_names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self.qi)

    def qi_attribute(self, name: str) -> Attribute:
        """Return the QI attribute called ``name``."""
        for attribute in self.qi:
            if attribute.name == name:
                return attribute
        raise KeyError(f"no QI attribute named {name!r}")

    def qi_position(self, name: str) -> int:
        """Return the index of the QI attribute called ``name``."""
        for position, attribute in enumerate(self.qi):
            if attribute.name == name:
                return position
        raise KeyError(f"no QI attribute named {name!r}")

    def project(self, qi_names: Sequence[str]) -> "Schema":
        """Return a schema keeping only the named QI attributes (SA unchanged)."""
        return Schema(
            qi=tuple(self.qi_attribute(name) for name in qi_names),
            sensitive=self.sensitive,
        )

    @property
    def domain_sizes(self) -> dict[str, int]:
        """Mapping of attribute name to domain size, including the SA."""
        sizes = {attribute.name: attribute.size for attribute in self.qi}
        sizes[self.sensitive.name] = self.sensitive.size
        return sizes


def _check_codes(codes: np.ndarray, attribute: Attribute, kind: str) -> None:
    """Raise :class:`DomainError` unless every code lies in ``attribute``'s domain."""
    low = int(codes.min())
    high = int(codes.max())
    if low < 0 or high >= attribute.size:
        code = low if low < 0 else high
        raise DomainError(f"code {code} out of range for {kind} {attribute.name!r}")


class Table:
    """An encoded categorical microdata table.

    The QI codes are stored as an ``(n, d)`` ``int32`` matrix
    (:attr:`qi_columns`) and the sensitive-attribute codes as an ``(n,)``
    ``int32`` array (:attr:`sa_array`).  The row constructor converts its
    tuples once and builds through :meth:`from_arrays`; the row-tuple views
    :attr:`qi_rows` / :attr:`sa_values` are derived from the columns on first
    read.  The class is intentionally immutable from the outside;
    anonymization algorithms build partitions of row indices rather than
    mutating the table.
    """

    def __init__(
        self,
        schema: Schema,
        qi_rows: Sequence[tuple[int, ...]],
        sa_values: Sequence[int],
    ) -> None:
        if len(qi_rows) != len(sa_values):
            raise ValueError(
                f"qi_rows has {len(qi_rows)} rows but sa_values has {len(sa_values)}"
            )
        dimension = schema.dimension
        for row in qi_rows:
            if len(row) != dimension:
                raise ValueError(
                    f"QI row {row!r} has {len(row)} values, expected {dimension}"
                )
        self._adopt(
            schema,
            np.asarray(qi_rows).reshape(len(qi_rows), dimension),
            np.asarray(sa_values).reshape(len(sa_values)),
            validate=True,
        )

    @classmethod
    def from_arrays(
        cls,
        schema: Schema,
        qi_columns: np.ndarray,
        sa_array: np.ndarray,
        validate: bool = True,
    ) -> "Table":
        """Build a table directly from columnar code arrays.

        ``qi_columns`` must be an ``(n, d)`` integer matrix and ``sa_array``
        an ``(n,)`` integer vector.  Codes are validated with vectorized
        bounds checks on the incoming values (before the ``int32`` cast, so
        a wide code cannot wrap into the domain) unless ``validate=False`` —
        the trusted path for arrays whose provenance already guarantees
        in-domain codes (a saved
        :class:`~repro.engine.columnstore.ColumnStore`, chunk encoders, or
        slices of an already-validated table), where the min/max scan would
        fault an entire memory-mapped file in for nothing.
        """
        table = cls.__new__(cls)
        table._adopt(schema, np.asarray(qi_columns), np.asarray(sa_array), validate)
        return table

    def _adopt(
        self, schema: Schema, columns: np.ndarray, sa: np.ndarray, validate: bool
    ) -> None:
        if columns.ndim != 2 or columns.shape[1] != schema.dimension:
            raise ValueError(
                f"qi_columns must have shape (n, {schema.dimension}), got {columns.shape}"
            )
        if sa.ndim != 1 or sa.shape[0] != columns.shape[0]:
            raise ValueError(
                f"sa_array has {sa.shape} entries but qi_columns has {columns.shape[0]} rows"
            )
        if columns.shape[0] and validate:
            for position, attribute in enumerate(schema.qi):
                _check_codes(columns[:, position], attribute, "attribute")
            _check_codes(sa, schema.sensitive, "sensitive attribute")
        self._schema = schema
        self._n = columns.shape[0]
        self._columns = np.ascontiguousarray(columns, dtype=np.int32)
        self._sa_array = np.ascontiguousarray(sa, dtype=np.int32)
        self._qi_rows: list[tuple[int, ...]] | None = None
        self._sa_values: list[int] | None = None
        self._qi_groups: dict[tuple[int, ...], list[int]] | None = None
        self._grouping = None
        self._order_cache = None
        self._sa_counts: dict[int, int] | None = None
        self._fingerprint: str | None = None

    # --------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        # Ship only the compact columnar form; derived caches (row tuples,
        # QI-group index) are rebuilt on demand in the receiving process.
        return {
            "schema": self._schema,
            "columns": self.qi_columns,
            "sa": self.sa_array,
        }

    def __setstate__(self, state: dict) -> None:
        restored = Table.from_arrays(state["schema"], state["columns"], state["sa"])
        self.__dict__.update(restored.__dict__)

    # ------------------------------------------------------------------ basics

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def dimension(self) -> int:
        """The number ``d`` of QI attributes."""
        return self._schema.dimension

    def __len__(self) -> int:
        return self._n

    @property
    def cardinality(self) -> int:
        """The number ``n`` of rows."""
        return self._n

    def qi_row(self, index: int) -> tuple[int, ...]:
        """Return the encoded QI vector of row ``index``."""
        return self.qi_rows[index]

    def sa_value(self, index: int) -> int:
        """Return the encoded SA value of row ``index``."""
        return self.sa_values[index]

    @property
    def qi_rows(self) -> list[tuple[int, ...]]:
        """All encoded QI vectors (a copy is *not* made; treat as read-only)."""
        if self._qi_rows is None:
            self._qi_rows = [tuple(row) for row in self._columns.tolist()]
        return self._qi_rows

    @property
    def sa_values(self) -> list[int]:
        """All encoded SA values (treat as read-only)."""
        if self._sa_values is None:
            self._sa_values = self._sa_array.tolist()
        return self._sa_values

    @property
    def qi_columns(self) -> np.ndarray:
        """The QI codes as an ``(n, d)`` ``int32`` matrix (treat as read-only).

        The grouping, generalization and metric paths all operate on it.
        """
        return self._columns

    @property
    def sa_array(self) -> np.ndarray:
        """The SA codes as an ``(n,)`` ``int32`` array (treat as read-only)."""
        return self._sa_array

    def rows(self) -> Iterable[tuple[tuple[int, ...], int]]:
        """Iterate over ``(qi_codes, sa_code)`` pairs."""
        return zip(self.qi_rows, self.sa_values)

    def fingerprint(self) -> str:
        """Content hash identifying the table (schema, QI codes, SA codes).

        Two tables with equal schemas and equal row contents (in the same
        order) have equal fingerprints, regardless of which physical
        representation they were built from.  The engine's result cache keys
        runs by ``(fingerprint, algorithm, l)``; the hash is computed once and
        cached (tables are immutable).
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            for attribute in (*self._schema.qi, self._schema.sensitive):
                digest.update(attribute.name.encode())
                digest.update(repr(attribute.values).encode())
                digest.update(b"\x00")
            digest.update(str(self._n).encode())
            digest.update(np.ascontiguousarray(self.qi_columns).tobytes())
            digest.update(np.ascontiguousarray(self.sa_array).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def decoded_record(self, index: int) -> dict[str, Any]:
        """Return row ``index`` as a ``{attribute name: raw value}`` mapping."""
        record = {
            attribute.name: attribute.decode(code)
            for attribute, code in zip(self._schema.qi, self.qi_rows[index])
        }
        record[self._schema.sensitive.name] = self._schema.sensitive.decode(
            self.sa_values[index]
        )
        return record

    def decoded_records(self) -> list[dict[str, Any]]:
        """Return all rows as raw-value mappings (for display / export)."""
        return [self.decoded_record(index) for index in range(len(self))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Table(n={len(self)}, d={self.dimension}, "
            f"qi={list(self._schema.qi_names)}, sa={self._schema.sensitive.name!r})"
        )

    # ------------------------------------------------------- sensitive values

    def sa_counts(self) -> Counter[int]:
        """Histogram of SA codes (``h(T, v)`` for every ``v``)."""
        if self._sa_counts is None:
            counts = np.bincount(self._sa_array)
            self._sa_counts = {
                int(value): int(count) for value, count in enumerate(counts) if count
            }
        return Counter(self._sa_counts)

    @property
    def distinct_sa_count(self) -> int:
        """The number ``m`` of distinct sensitive values present in the table."""
        return len(self.sa_counts())

    def is_l_eligible(self, l: int) -> bool:
        """Whether the whole table is l-eligible (Definition 2 applied to T).

        By Lemma 1 (monotonicity) this is exactly the condition under which an
        l-diverse generalization of the table exists.
        """
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        if len(self) == 0:
            return True
        counts = self.sa_counts()
        return max(counts.values()) * l <= len(self)

    @property
    def max_l(self) -> int:
        """The largest ``l`` for which the table is l-eligible (0 for empty tables)."""
        if len(self) == 0:
            return 0
        return len(self) // max(self.sa_counts().values())

    # ------------------------------------------------------------ derivations

    def project(self, qi_names: Sequence[str]) -> "Table":
        """Project onto a subset of QI attributes, keeping the SA.

        This is the operation used to build the SAL-d / OCC-d workloads of
        Section 6 from the 7-attribute base tables.
        """
        positions = [self._schema.qi_position(name) for name in qi_names]
        schema = self._schema.project(qi_names)
        return Table.from_arrays(schema, self.qi_columns[:, positions], self.sa_array)

    def sample(self, size: int, seed: int = 0) -> "Table":
        """Return a uniform random sample of ``size`` rows (without replacement)."""
        if size > len(self):
            raise ValueError(f"cannot sample {size} rows from a table of {len(self)}")
        rng = random.Random(seed)
        indices = rng.sample(range(len(self)), size)
        return self.subset(indices)

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Return a table containing exactly the given rows (in the given order).

        ``indices`` may be a list, a ``range`` or an integer array; none is
        copied through a Python list.
        """
        if isinstance(indices, range):
            index = np.arange(indices.start, indices.stop, indices.step, dtype=np.intp)
        else:
            index = np.asarray(indices, dtype=np.intp)
        return Table.from_arrays(
            self._schema, np.take(self.qi_columns, index, axis=0), self.sa_array[index]
        )

    def group_by_qi(self) -> dict[tuple[int, ...], list[int]]:
        """Group row indices by identical QI vector.

        These are the initial QI-groups ``Q_1..Q_s`` of Section 5.1: tuples in
        the same group agree on every QI attribute, so generalizing a group
        that was never touched costs zero stars.

        Within each group, row indices are ascending.  The result is cached
        (the table is immutable, so the grouping can never change) and must
        be treated as read-only by callers.
        """
        if self._qi_groups is None:
            # The shared grouping context holds the one (QI, SA) sort of the
            # table; deriving the QI grouping from it kills the historical
            # second lexsort.  grouping() times itself under the ``encode``
            # stage; the derivation is attributed there too.
            context = self.grouping()
            with trace.span("encode"):
                self._qi_groups = context.group_by_qi()
        return self._qi_groups

    def attach_order_cache(self, cache) -> None:
        """Attach a persistent sort-permutation cache (duck-typed hook).

        ``cache.load(table)`` may return a previously persisted ``(QI, SA)``
        permutation (or ``None``); ``cache.store(table, order)`` persists a
        freshly computed one.  A :class:`~repro.engine.columnstore.
        ColumnStoreSource` attaches its ``order.npy`` sidecar here so repeat
        runs on the same store skip the sort entirely.  Must be called
        before the first grouping read; later calls are ignored once the
        context exists.
        """
        if self._grouping is None:
            self._order_cache = cache

    def grouping(self):
        """The shared :class:`~repro.core.grouping.GroupingContext` (cached).

        One ``(QI vector, SA code)`` sort per table, consumed by state-init,
        ``group_by_qi`` and the KL metric.  The
        computation is timed as the ``encode`` span of the run's tree (with a
        nested ``sort`` span only when an actual sort ran — a
        persisted permutation from :meth:`attach_order_cache` skips it).
        """
        if self._grouping is None:
            from repro.core.grouping import GroupingContext

            with trace.span("encode"):
                order = None
                cache = self._order_cache
                if cache is not None and self._n:
                    order = cache.load(self)
                context = GroupingContext.build(
                    self.qi_columns,
                    self.sa_array,
                    [attribute.size for attribute in self._schema.qi],
                    self._schema.sensitive.size,
                    order=order,
                )
                if order is None and cache is not None and self._n:
                    cache.store(self, context.order)
                self._grouping = context
        return self._grouping

    def qi_sa_runs_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The run encoding of the rows sorted by ``(QI vector, SA code)``.

        Returns ``(group_keys, group_run_bounds, run_bounds, run_values,
        order)`` as NumPy arrays: an ``(s, d)`` ``int32`` matrix of distinct
        QI vectors in ascending order, the ``(s + 1,)`` boundaries of each
        group's runs, the ``(r + 1,)`` row boundaries of the maximal constant
        ``(QI, SA)`` runs, the ``(r,)`` SA code per run, and the ``(n,)``
        permutation sorting rows by ``(QI vector, SA code)`` (stable, so row
        indices ascend within ties).

        This is the whole l-independent preprocessing of the three-phase
        algorithm (Section 5.1); the arrays live on the shared
        :meth:`grouping` context, so the fused phase kernels, the
        :class:`~repro.core.state.AlgorithmState` and the metrics all read
        the same sort.  Treat all five arrays as read-only.
        """
        return self.grouping().arrays()

    def group_by_qi_reference(self) -> dict[tuple[int, ...], list[int]]:
        """Pure-Python QI-grouping (the oracle for the vectorized path)."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for index, row in enumerate(self.qi_rows):
            groups.setdefault(row, []).append(index)
        return groups

    @property
    def distinct_qi_count(self) -> int:
        """The number ``s`` of distinct QI vectors."""
        return len(self.group_by_qi())

    # --------------------------------------------------------------- builders

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, Any]],
        qi_names: Sequence[str],
        sa_name: str,
        schema: Schema | None = None,
    ) -> "Table":
        """Build a table from raw records.

        Parameters
        ----------
        records:
            A sequence of mappings, each holding at least the QI attributes
            and the sensitive attribute.
        qi_names:
            Names (and order) of the quasi-identifier attributes.
        sa_name:
            Name of the sensitive attribute.
        schema:
            Optional pre-built schema.  When omitted, attribute domains are
            inferred as the sorted sets of observed values.
        """
        if schema is None:
            qi_attributes = tuple(
                Attribute.from_values(name, (record[name] for record in records))
                for name in qi_names
            )
            sensitive = Attribute.from_values(sa_name, (record[sa_name] for record in records))
            schema = Schema(qi=qi_attributes, sensitive=sensitive)
        qi_rows = [
            tuple(
                schema.qi_attribute(name).encode(record[name]) for name in schema.qi_names
            )
            for record in records
        ]
        sa_values = [schema.sensitive.encode(record[sa_name]) for record in records]
        return cls(schema, qi_rows, sa_values)

    @classmethod
    def from_csv(
        cls,
        path: str,
        qi_names: Sequence[str],
        sa_name: str,
        schema: Schema | None = None,
        delimiter: str = ",",
    ) -> "Table":
        """Load a table from a CSV file with a header row."""
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle, delimiter=delimiter)
            records = [dict(row) for row in reader]
        return cls.from_records(records, qi_names, sa_name, schema=schema)

    def to_csv(self, path: str, delimiter: str = ",") -> None:
        """Write the decoded table to a CSV file with a header row."""
        names = list(self._schema.qi_names) + [self._schema.sensitive.name]
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=names, delimiter=delimiter)
            writer.writeheader()
            for record in self.decoded_records():
                writer.writerow(record)
