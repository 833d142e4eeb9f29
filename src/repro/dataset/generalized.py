"""Generalized (anonymized) tables, partitions and suppression.

Definition 1 of the paper: a partition of the microdata into QI-groups
defines a generalization in which, within each group, an attribute keeps its
value if every tuple of the group agrees on it and is replaced by a star
otherwise.  Sensitive values are always retained.

This module provides:

* :data:`STAR` — the sentinel for a suppressed cell;
* :class:`Partition` — a validated partition of row indices into QI-groups;
* :class:`GeneralizedTable` — the anonymized output, supporting both
  suppression cells (stars) and sub-domain cells (sets of codes) so that the
  single-dimensional baseline (TDS) and the multi-dimensional baseline
  (Mondrian) can share the same metrics code.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.dataset.table import Schema, Table
from repro.obs import trace

__all__ = ["STAR", "GeneralizedTable", "Partition", "cell_size", "cell_contains"]


class _Star:
    """Singleton sentinel representing a suppressed QI value."""

    _instance: "_Star | None" = None

    def __new__(cls) -> "_Star":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):  # keep the singleton across pickling
        return (_Star, ())


STAR = _Star()

#: A generalized cell is either an exact integer code, the :data:`STAR`
#: sentinel, or a frozenset of codes (a sub-domain, produced by the
#: single/multi-dimensional generalization baselines).
Cell = Any


def cell_size(cell: Cell, domain_size: int) -> int:
    """Number of domain values a generalized cell may stand for."""
    if cell is STAR:
        return domain_size
    if isinstance(cell, frozenset):
        return len(cell)
    return 1


def cell_contains(cell: Cell, code: int, domain_size: int) -> bool:
    """Whether ``code`` is consistent with the generalized ``cell``."""
    if cell is STAR:
        return 0 <= code < domain_size
    if isinstance(cell, frozenset):
        return code in cell
    return cell == code


class Partition:
    """A partition of the rows of a table into QI-groups.

    Groups are lists of row indices.  Empty groups are dropped.  The partition
    is validated: every row index must appear in exactly one group.
    """

    def __init__(self, groups: Iterable[Sequence[int]], n_rows: int) -> None:
        cleaned = [list(group) for group in groups if len(group) > 0]
        self._validate(cleaned, n_rows)
        self._groups = cleaned
        self._n_rows = n_rows

    @staticmethod
    def _validate(cleaned: list[list[int]], n_rows: int) -> None:
        """Coverage/disjointness checks via one concatenation and bincount."""
        if not cleaned:
            if n_rows:
                raise ValueError(f"partition covers 0 of {n_rows} rows ({n_rows} missing)")
            return
        members = np.concatenate([np.asarray(group, dtype=np.int64) for group in cleaned])
        total = int(members.size)
        if total and (members.min() < 0 or members.max() >= n_rows):
            bad = int(members.min()) if members.min() < 0 else int(members.max())
            raise ValueError(f"row index {bad} out of range for n={n_rows}")
        occurrences = np.bincount(members, minlength=n_rows)
        duplicates = np.flatnonzero(occurrences > 1)
        if duplicates.size:
            raise ValueError(
                f"row index {int(duplicates[0])} appears in more than one group"
            )
        if total != n_rows:
            missing = n_rows - total
            raise ValueError(f"partition covers {total} of {n_rows} rows ({missing} missing)")

    @property
    def groups(self) -> list[list[int]]:
        # Trusted partitions may hold ndarray spans (zero-copy views over the
        # algorithm state's sort order); the public contract stays plain
        # lists, so normalize lazily here while the internal fast path
        # (:meth:`raw_groups`) keeps the arrays.
        groups = self._groups
        if any(isinstance(group, np.ndarray) for group in groups):
            groups = [
                group.tolist() if isinstance(group, np.ndarray) else group
                for group in groups
            ]
            self._groups = groups
        return groups

    def raw_groups(self) -> list:
        """The groups without list normalization (may contain ndarrays).

        Internal fast path for vectorized consumers
        (:meth:`GeneralizedTable.from_partition`) that concatenate the
        member indices anyway; treat the result as read-only.
        """
        return self._groups

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self):
        return iter(self.groups)

    def __getitem__(self, index: int) -> list[int]:
        return self.groups[index]

    def group_of(self) -> list[int]:
        """Return a list mapping each row index to its group id."""
        assignment = [-1] * self._n_rows
        for group_id, group in enumerate(self._groups):
            for index in group:
                assignment[index] = group_id
        return assignment

    def group_sizes(self) -> list[int]:
        return [len(group) for group in self._groups]

    @classmethod
    def trusted(cls, groups: list[list[int]], n_rows: int) -> "Partition":
        """Adopt ``groups`` without validation (internal fast path).

        For partitions that are valid *by construction* — the output of the
        three-phase algorithm, the Hilbert scan, or a QI-grouping — the
        O(n) coverage/disjointness check is pure overhead on the hot path.
        Groups must be non-empty, disjoint, cover ``0..n_rows-1``, and are
        adopted without copying; callers must relinquish ownership.  Groups
        may be ndarrays of row indices (zero-copy spans); the public
        :attr:`groups` property normalizes them to lists on first access.
        """
        partition = cls.__new__(cls)
        partition._groups = groups
        partition._n_rows = n_rows
        return partition

    @classmethod
    def single_group(cls, n_rows: int) -> "Partition":
        """The trivial partition with all rows in one QI-group."""
        return cls([list(range(n_rows))], n_rows)

    @classmethod
    def by_qi(cls, table: Table) -> "Partition":
        """The finest zero-star partition: group rows by identical QI vector."""
        return cls.trusted([list(rows) for rows in table.group_by_qi().values()], len(table))


class GeneralizedTable:
    """An anonymized table: generalized QI cells plus retained SA values.

    Instances are normally produced via :meth:`from_partition` (suppression,
    Definition 1) or by the generalization baselines, which supply sub-domain
    cells directly.
    """

    def __init__(
        self,
        schema: Schema,
        cells: Sequence[Sequence[Cell]],
        sa_values: Sequence[int],
        group_ids: Sequence[int],
    ) -> None:
        if not (len(cells) == len(sa_values) == len(group_ids)):
            raise ValueError("cells, sa_values and group_ids must have equal length")
        dimension = schema.dimension
        for row in cells:
            if len(row) != dimension:
                raise ValueError(f"generalized row {row!r} does not have {dimension} cells")
        self._schema = schema
        self._n = len(cells)
        self._cells = [tuple(row) for row in cells]
        self._sa_values = list(sa_values)
        self._group_ids = list(group_ids)
        self._reset_caches()

    def _reset_caches(self) -> None:
        # Lazily-filled caches; the table is immutable so none ever invalidates.
        self._groups_cache: dict[int, list[int]] | None = None
        self._star_mask: np.ndarray | None = None
        self._star_count: int | None = None
        self._suppressed_count: int | None = None
        self._width_matrix: np.ndarray | None = None
        # Columnar backing: set eagerly by from_partition (zero-copy from the
        # source table / group reduction), derived lazily from the lists
        # otherwise.  ``_sa_values`` / ``_group_ids`` may in turn be None and
        # materialize lazily from these arrays.
        self._sa_codes: np.ndarray | None = None
        self._group_ids_arr: np.ndarray | None = None
        self._group_sizes_arr: np.ndarray | None = None
        self._group_sa_counts_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # Per-group star flags ((g, d) bool) when every row of a group shares
        # one representative cells tuple — the from_groups invariant the
        # group-level metrics exploit.
        self._group_star: np.ndarray | None = None
        # Per-group surviving codes ((g, d) int, the reduction minima) —
        # together with ``_group_star`` the complete columnar form of a
        # suppression output (``columnar_publish``).
        self._group_reps: np.ndarray | None = None

    @property
    def _cells(self) -> list[tuple[Cell, ...]]:
        # Per-row cells materialize lazily: a from_groups table carries only
        # the (g, d) representatives and the row->group map until something
        # actually reads row tuples (width matrix, the row-level oracles).
        # The bench/serving hot paths never do — group-level stats are all
        # seeded — so publish stays O(g + n) array work instead of building
        # n Python tuples.
        if self._cells_rows is None:
            representatives = [
                tuple(
                    STAR if starred else value
                    for value, starred in zip(values, flags)
                )
                for values, flags in zip(
                    self._group_reps.tolist(), self._group_star.tolist()
                )
            ]
            self._cells_rows = [
                representatives[group_id]
                for group_id in self.group_ids_array().tolist()
            ]
        return self._cells_rows

    @_cells.setter
    def _cells(self, rows: list[tuple[Cell, ...]] | None) -> None:
        self._cells_rows = rows

    @classmethod
    def _from_trusted(
        cls,
        schema: Schema,
        cells: list[tuple[Cell, ...]],
        sa_values,
        group_ids,
    ) -> "GeneralizedTable":
        """Adopt pre-validated row data without the defensive copies.

        Internal fast path for constructors that just built ``cells`` /
        ``group_ids`` themselves (``from_partition``); the containers are
        adopted as-is and must not be mutated afterwards by the caller.
        ``sa_values`` and ``group_ids`` may be ndarrays, in which case the
        Python lists materialize lazily on first list-view access.
        ``cells`` may be ``None`` when the caller seeds the columnar group
        form (``_group_reps`` / ``_group_star``) instead — the row tuples
        then materialize lazily on first ``_cells`` access.
        """
        table = cls.__new__(cls)
        table._schema = schema
        table._n = len(cells) if cells is not None else len(group_ids)
        table._cells = cells
        table._reset_caches()
        if isinstance(sa_values, np.ndarray):
            table._sa_values = None
            table._sa_codes = sa_values
        else:
            table._sa_values = list(sa_values)
        if isinstance(group_ids, np.ndarray):
            table._group_ids = None
            table._group_ids_arr = group_ids
        else:
            table._group_ids = group_ids
        return table

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_partition(cls, table: Table, partition: Partition) -> "GeneralizedTable":
        """Apply suppression (Definition 1) to ``table`` under ``partition``.

        Within each QI-group, attribute ``A_i`` keeps its value when all
        tuples of the group agree on it, and becomes :data:`STAR` otherwise.

        The group reduction is one min/max pass
        (:func:`repro.core.kernels.grouped_min_max`, the ``min-max`` span of
        the run's tree) and the result adopts the *columnar* group form
        — ``(g, d)`` surviving codes plus star flags plus the row->group map
        — without materializing per-row cell tuples; those build lazily on
        first row access.  Every consumer on the bench/serving hot path
        (star counts, group histograms, the privacy checks, the CSV result
        artifact) reads the columnar form directly.  Its per-cell oracle is
        ``from_partition_reference`` in ``tests/group_oracles.py``.
        """
        if partition.n_rows != len(table):
            raise ValueError("partition size does not match table size")
        n = len(table)
        if n == 0:
            return cls(table.schema, [], [], [])
        groups = partition.raw_groups()
        columns = table.qi_columns
        sizes = np.asarray([len(group) for group in groups], dtype=np.intp)
        members = np.concatenate([np.asarray(group, dtype=np.intp) for group in groups])
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        # An attribute survives in a group exactly when its min equals its max
        # over the group — one reduceat pair replaces the per-row scan.
        from repro.core import kernels  # deferred: repro.core imports this module

        with trace.span("min-max"):
            minima, maxima = kernels.grouped_min_max(columns, members, starts)
        star = minima != maxima

        group_of = np.empty(n, dtype=np.intp)
        group_of[members] = np.repeat(np.arange(len(groups), dtype=np.intp), sizes)

        result = cls.from_groups(table, minima, star, group_of)
        stars_per_group = star.sum(axis=1)
        result._star_count = int((stars_per_group * sizes).sum())
        result._suppressed_count = int(sizes[stars_per_group > 0].sum())
        result._group_sizes_arr = sizes
        return result

    @classmethod
    def from_groups(
        cls,
        table: Table,
        rep_codes: np.ndarray,
        rep_star: np.ndarray,
        group_of: np.ndarray,
    ) -> "GeneralizedTable":
        """Adopt a suppression output's columnar group form without copying
        or validating: ``(g, d)`` per-group codes and star flags (a starred
        code is never read), the ``(n,)`` row→group map, and ``table``'s SA
        column.  Per-row cell tuples build lazily if something asks."""
        result = cls._from_trusted(table.schema, None, table.sa_array, group_of)
        result._group_star = rep_star
        result._group_reps = rep_codes
        return result

    # ----------------------------------------------------------------- basics

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return self._n

    @property
    def dimension(self) -> int:
        return self._schema.dimension

    def cell(self, row: int, position: int) -> Cell:
        return self._cells[row][position]

    def row_cells(self, row: int) -> tuple[Cell, ...]:
        return self._cells[row]

    @property
    def cell_rows(self) -> list[tuple[Cell, ...]]:
        """All generalized rows (a copy is *not* made; treat as read-only).

        Rows belonging to the same QI-group typically share one tuple object,
        which the metrics exploit to memoize per-row work by identity.
        """
        return self._cells

    def sa_value(self, row: int) -> int:
        if self._sa_values is not None:
            return self._sa_values[row]
        return int(self._sa_codes[row])

    @property
    def sa_values(self) -> list[int]:
        if self._sa_values is None:
            self._sa_values = self._sa_codes.tolist()
        return self._sa_values

    @property
    def group_ids(self) -> list[int]:
        if self._group_ids is None:
            self._group_ids = self._group_ids_arr.tolist()
        return self._group_ids

    # ------------------------------------------------------- columnar access

    def sa_codes(self) -> np.ndarray:
        """The sensitive column as an ``int`` array (zero-copy when possible)."""
        if self._sa_codes is None:
            self._sa_codes = np.asarray(self._sa_values, dtype=np.int64)
        return self._sa_codes

    def group_ids_array(self) -> np.ndarray:
        """The per-row group ids as an ``int`` array (zero-copy when possible)."""
        if self._group_ids_arr is None:
            self._group_ids_arr = np.asarray(self._group_ids, dtype=np.intp)
        return self._group_ids_arr

    def group_sizes_array(self) -> np.ndarray:
        """``sizes[group_id]`` for every group id in ``0..max(id)``.

        Ids absent from the table get size 0 (group ids are dense for
        :meth:`from_partition` output, but explicit constructors may skip
        ids).  Cached; treat as read-only.
        """
        if self._group_sizes_arr is None:
            gids = self.group_ids_array()
            if gids.size:
                self._group_sizes_arr = np.bincount(gids).astype(np.intp)
            else:
                self._group_sizes_arr = np.zeros(0, dtype=np.intp)
        return self._group_sizes_arr

    def group_sa_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse per-``(group, SA value)`` histogram triples.

        Returns ``(gids, values, counts)`` with one entry per distinct
        ``(group id, SA value)`` pair, sorted by ``(gid, value)`` — the
        columnar form of the per-group Counter histograms the privacy checks
        consume.  Computed via one bincount over the composite
        ``gid * m + sa`` code (dense) or ``np.unique`` when the composite
        domain is too large; cached.  Explicit constructors may use negative
        group ids: the composite code is shifted up by the smallest id, and
        the returned ids are the original ones.
        """
        if self._group_sa_counts_cache is None:
            gids = self.group_ids_array().astype(np.int64, copy=False)
            sa = self.sa_codes().astype(np.int64, copy=False)
            m = max(int(self._schema.sensitive.size), 1)
            if gids.size == 0:
                empty = np.zeros(0, dtype=np.int64)
                self._group_sa_counts_cache = (empty, empty, empty)
            else:
                low = min(int(gids.min()), 0)
                combo = gids * m + sa
                if low:
                    combo -= low * m
                span = (int(gids.max()) - low + 1) * m
                if span <= max(1 << 20, 4 * gids.size):
                    counts = np.bincount(combo, minlength=span)
                    present = np.flatnonzero(counts)
                    counts = counts[present]
                else:
                    present, counts = np.unique(combo, return_counts=True)
                self._group_sa_counts_cache = (present // m + low, present % m, counts)
        return self._group_sa_counts_cache

    def group_sizes_heights(self) -> tuple[np.ndarray, np.ndarray]:
        """Every present group's size and tallest SA count, by ascending id.

        One ``reduceat`` pair over the :meth:`group_sa_counts` triples, so
        any group ids work, negative ones included; the l-diversity and
        k-anonymity checks, the diversity report and the size metrics read
        it.
        """
        triple_gids, _values, counts = self.group_sa_counts()
        if not counts.size:
            return counts, counts
        starts = np.concatenate(
            ([0], np.flatnonzero(triple_gids[1:] != triple_gids[:-1]) + 1)
        )
        return np.add.reduceat(counts, starts), np.maximum.reduceat(counts, starts)

    def group_star_flags(self) -> np.ndarray | None:
        """Per-group ``(g, d)`` star flags, or ``None`` when unknown.

        Seeded by :meth:`from_groups`, whose groups all share one
        representative cells tuple; explicit constructors (sub-domain
        baselines) leave it unset and the metrics fall back to row-level
        reductions.  Read-only.
        """
        return self._group_star

    def columnar_publish(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The complete columnar group form, or ``None`` when unavailable.

        Returns ``(rep_codes, rep_star, group_of, sa_codes)``: per-group
        ``(g, d)`` surviving QI codes and star flags, the ``(n,)`` row→group
        map, and the ``(n,)`` SA codes.  Together these determine every
        published cell without materializing row tuples — the result
        artifact serializes exactly these arrays.  Every suppression output
        carries the form (:meth:`from_partition`, merged shards, run-store
        hits, all through :meth:`from_groups`); tables built from explicit
        cells return ``None``.  All arrays are shared and must be treated as
        read-only.
        """
        if self._group_reps is None or self._group_star is None:
            return None
        return (
            self._group_reps,
            self._group_star,
            self.group_ids_array(),
            self.sa_codes(),
        )

    def groups(self) -> dict[int, list[int]]:
        """Mapping of group id to the list of row indices in that group.

        Keys appear in first-appearance (minimum row index) order and every
        list is ascending — the exact insertion order the row-scan reference
        produces, which downstream consumers (spec rebuilds, pinned digests)
        rely on.  The result is cached (the table is immutable) and must be
        treated as read-only; the metrics all share one computation.
        """
        if self._groups_cache is None:
            if not len(self):
                self._groups_cache = {}
            else:
                gids = self.group_ids_array()
                order = np.argsort(gids, kind="stable")
                sorted_gids = gids[order]
                boundaries = (
                    np.flatnonzero(sorted_gids[1:] != sorted_gids[:-1]) + 1
                )
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [sorted_gids.shape[0]]))
                # Stable sort → order[start] is each group's minimum row, so
                # ranking the blocks by it restores first-appearance order.
                appearance = np.argsort(order[starts], kind="stable")
                ids = sorted_gids[starts].tolist()
                ordered = order.tolist()
                starts_list = starts.tolist()
                ends_list = ends.tolist()
                self._groups_cache = {
                    ids[block]: ordered[starts_list[block] : ends_list[block]]
                    for block in appearance.tolist()
                }
        return self._groups_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GeneralizedTable(n={len(self)}, d={self.dimension}, "
            f"groups={len(set(self.group_ids))}, stars={self.star_count()})"
        )

    # ------------------------------------------------------------ information

    def star_mask(self) -> np.ndarray:
        """Boolean ``(n, d)`` matrix marking the suppressed cells.

        Tables produced by :meth:`from_partition` derive this by one gather
        from the per-group star flags; for tables built from explicit cells
        the mask is derived once and cached.  Rows of a group share one cells
        tuple, so the derivation memoizes per distinct tuple (by identity —
        the tuples are pinned alive by ``self._cells``).
        """
        if self._star_mask is None and self._group_star is not None:
            self._star_mask = self._group_star[self.group_ids_array()]
        if self._star_mask is None:
            memo: dict[int, list[bool]] = {}
            rows: list[list[bool]] = []
            for cells in self._cells:
                flags = memo.get(id(cells))
                if flags is None:
                    flags = [cell is STAR for cell in cells]
                    memo[id(cells)] = flags
                rows.append(flags)
            self._star_mask = np.asarray(rows, dtype=bool).reshape(
                len(self._cells), self._schema.dimension
            )
        return self._star_mask

    def width_matrix(self) -> np.ndarray:
        """``(n, d)`` matrix of :func:`cell_size` values (cached).

        Entry ``(i, j)`` is the number of domain values cell ``j`` of row
        ``i`` may stand for: 1 for exact cells, the sub-domain size for
        frozensets, the full domain size for stars.
        """
        if self._width_matrix is None:
            sizes = [attribute.size for attribute in self._schema.qi]
            memo: dict[int, list[int]] = {}
            rows: list[list[int]] = []
            for cells in self._cells:
                widths = memo.get(id(cells))
                if widths is None:
                    widths = [cell_size(cell, size) for cell, size in zip(cells, sizes)]
                    memo[id(cells)] = widths
                rows.append(widths)
            self._width_matrix = np.asarray(rows, dtype=np.int64).reshape(
                len(self._cells), self._schema.dimension
            )
        return self._width_matrix

    def star_count(self) -> int:
        """Total number of suppressed QI cells (the Problem 1 objective)."""
        if self._star_count is None:
            self._star_count = int(np.count_nonzero(self.star_mask()))
        return self._star_count

    def suppressed_tuple_count(self) -> int:
        """Number of rows with at least one star (the Problem 2 objective)."""
        if self._suppressed_count is None:
            self._suppressed_count = int(self.star_mask().any(axis=1).sum())
        return self._suppressed_count

    def generalized_cell_count(self) -> int:
        """Number of QI cells that are not exact values (stars or sub-domains)."""
        return sum(
            1 for row in self._cells for cell in row if cell is STAR or isinstance(cell, frozenset)
        )

    # --------------------------------------------------------------- privacy

    def is_l_diverse(self, l: int) -> bool:
        """Whether every QI-group satisfies l-diversity (Definition 2).

        Per group, the tallest SA count times ``l`` must not exceed the
        group size (:meth:`group_sizes_heights`).
        """
        if l < 1:
            raise ValueError(f"l must be >= 1, got {l}")
        sizes, heights = self.group_sizes_heights()
        return not bool(np.any(heights * l > sizes))

    def is_k_anonymous(self, k: int) -> bool:
        """Whether every QI-group has at least ``k`` rows."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        sizes, _heights = self.group_sizes_heights()
        return bool((sizes >= k).all())

    # ---------------------------------------------------------------- display

    def decoded_record(self, row: int) -> dict[str, Any]:
        """Return a row with raw values; stars render as ``'*'`` and sub-domains as sorted tuples."""
        record: dict[str, Any] = {}
        for position, attribute in enumerate(self._schema.qi):
            cell = self._cells[row][position]
            if cell is STAR:
                record[attribute.name] = "*"
            elif isinstance(cell, frozenset):
                record[attribute.name] = tuple(sorted(attribute.decode(code) for code in cell))
            else:
                record[attribute.name] = attribute.decode(cell)
        record[self._schema.sensitive.name] = self._schema.sensitive.decode(self.sa_value(row))
        return record

    def decoded_records(self) -> list[dict[str, Any]]:
        return [self.decoded_record(row) for row in range(len(self))]
