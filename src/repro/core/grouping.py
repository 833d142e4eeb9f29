"""The shared grouping context: one (QI, SA) sort per table, many consumers.

PR 7's profiling showed the million-row pipeline paying for the same
lexicographic structure three times over: the run encoding sorted the table
for state-init, ``group_by_qi`` lexsorted the QI columns again, and the
KL/discernibility metrics ran their own ``np.unique`` passes.  A
:class:`GroupingContext` is that structure computed **once**: the stable
permutation sorting rows by ``(QI vector, SA code)``, the group/run
boundaries over it, and every derived per-group array the phases and metrics
need — all cached on the (immutable) table via :meth:`Table.grouping
<repro.dataset.table.Table.grouping>`.

The sort itself is the dominant cost, so it is engineered separately
(:func:`sort_qi_sa`): the ``d + 1`` lexsort keys are packed into one
mixed-radix int64 composite key (bit-identical ordering, radix-sort
friendly) and sorted stably in one packed value sort.  Callers that
already know the permutation (the ``order.npy`` sidecar of a
:class:`~repro.engine.columnstore.ColumnStore`) pass it in and skip the
sort entirely; the ``sort`` span of the run's tree is recorded only
when a sort actually ran, which is what the warm-start CI guard asserts.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core import kernels
from repro.obs import trace

__all__ = ["GroupingContext", "sort_qi_sa"]


def sort_qi_sa(
    columns: np.ndarray,
    sa: np.ndarray,
    qi_sizes: Sequence[int],
    sa_size: int,
    keys: np.ndarray | None = None,
) -> np.ndarray:
    """The stable permutation sorting rows by ``(QI vector, SA code)``.

    Equivalent to ``np.lexsort((sa, columns[:, d-1], ..., columns[:, 0]))``
    — and bit-identical to it — but via one composite int64 key and a single
    packed value sort (:func:`~repro.core.kernels.stable_sort_pairs`):
    ~2.5x faster than the multi-key lexsort at 10^6 rows, and another ~5x
    on the sort itself when the packed words fit.  Falls back to the
    lexsort when the combined domains overflow 62 bits (no realistic
    census-style domain does).  A caller that already packed the composite keys passes them via
    ``keys`` (``None`` means "pack here").  The actual sort is wrapped in
    a ``sort`` span (:mod:`repro.obs.trace`) so warm starts (a persisted
    permutation) are observable by its absence.
    """
    with trace.span("sort"):
        if keys is None:
            keys = kernels.composite_codes(columns, sa, qi_sizes, sa_size)
        if keys is not None:
            order, _ = kernels.stable_sort_pairs(keys, _key_span(qi_sizes, sa_size))
            return order
        dimension = columns.shape[1]
        return np.lexsort(
            (sa,) + tuple(columns[:, position] for position in reversed(range(dimension)))
        )


def _key_span(qi_sizes: Sequence[int], sa_size: int) -> int:
    """Exclusive upper bound of the composite ``(QI, SA)`` key packing."""
    span = int(sa_size)
    for size in qi_sizes:
        span *= int(size)
    return span


class GroupingContext:
    """The run encoding of one table plus every derived array, shared.

    The five core arrays are exactly the historical
    :meth:`~repro.dataset.table.Table.qi_sa_runs_arrays` contract:

    * ``group_keys`` — ``(s, d)`` int32, the distinct QI vectors ascending;
    * ``group_run_bounds`` — ``(s + 1,)`` boundaries of each group's runs;
    * ``run_bounds`` — ``(r + 1,)`` row boundaries of the maximal constant
      ``(QI, SA)`` runs inside ``order``;
    * ``run_values`` — ``(r,)`` SA code per run;
    * ``order`` — ``(n,)`` stable permutation sorting rows by
      ``(QI vector, SA code)`` (row indices ascend within ties).

    Derived arrays (run lengths, per-group row bounds, sizes/heights, run
    group ids) are computed lazily and cached, so state-init, publish and
    the metrics all read the same objects instead of re-deriving them.  Everything is read-only by convention.
    """

    __slots__ = (
        "group_keys",
        "group_run_bounds",
        "run_bounds",
        "run_values",
        "order",
        "_run_lengths",
        "_group_row_bounds",
        "_sizes",
        "_heights",
        "_run_group_ids",
    )

    def __init__(
        self,
        group_keys: np.ndarray,
        group_run_bounds: np.ndarray,
        run_bounds: np.ndarray,
        run_values: np.ndarray,
        order: np.ndarray,
    ) -> None:
        self.group_keys = group_keys
        self.group_run_bounds = group_run_bounds
        self.run_bounds = run_bounds
        self.run_values = run_values
        self.order = order
        self._run_lengths: np.ndarray | None = None
        self._group_row_bounds: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._heights: np.ndarray | None = None
        self._run_group_ids: np.ndarray | None = None

    # ------------------------------------------------------------ construction

    @classmethod
    def build(
        cls,
        columns: np.ndarray,
        sa: np.ndarray,
        qi_sizes: Sequence[int],
        sa_size: int,
        order: np.ndarray | None = None,
    ) -> "GroupingContext":
        """Build the context from columnar codes, sorting unless ``order`` is given.

        A supplied ``order`` (the warm-start path) must be the stable
        ``(QI, SA)`` permutation of exactly these rows; only the boundary
        scan runs then, and no ``sort`` span is recorded.

        The boundary scan is key-derived when the composite packing fits
        62 bits (always, for census-style domains): the packed key is
        injective over ``(QI vector, SA code)``, so adjacent sorted keys
        differ exactly at run boundaries and their ``// sa_size`` quotients
        (the packed QI prefix) differ exactly at group boundaries.  That
        replaces the O(n·d) ``columns[order]`` gather-and-compare of the
        reference scan with one int64 gather plus O(n) compares — the QI
        vectors and SA codes are then gathered only at the ``s`` group
        starts and ``r`` run starts.  The packing, and on a warm start the
        gather of the packed keys into ``order``, are the ``pack`` spans.
        The oracle, ``grouping_context_reference`` in
        ``tests/group_oracles.py``, always takes the full-width scan.
        """
        n, dimension = columns.shape
        if n == 0:
            return cls(
                np.zeros((0, dimension), dtype=np.int32),
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.zeros(0, dtype=np.int32),
                np.zeros(0, dtype=np.intp),
            )
        with trace.span("pack"):
            keys = kernels.composite_codes(columns, sa, qi_sizes, sa_size)
        if keys is None:
            if order is None:
                order = sort_qi_sa(columns, sa, qi_sizes, sa_size)
            else:
                order = np.asarray(order, dtype=np.intp)
            return cls._build_from_wide_scan(columns, sa, order)
        if order is None:
            with trace.span("sort"):
                order, sorted_keys = kernels.stable_sort_pairs(
                    keys, _key_span(qi_sizes, sa_size)
                )
        else:
            order = np.asarray(order, dtype=np.intp)
            with trace.span("pack"):
                sorted_keys = keys[order]
        if n == 1:
            new_group = np.zeros(0, dtype=bool)
            new_run = new_group
        else:
            new_run = sorted_keys[1:] != sorted_keys[:-1]
            qi_codes = sorted_keys // sa_size
            new_group = qi_codes[1:] != qi_codes[:-1]
        group_starts = np.concatenate(([0], np.flatnonzero(new_group) + 1))
        run_starts = np.concatenate(([0], np.flatnonzero(new_run) + 1))
        run_bounds = np.concatenate((run_starts, [n])).astype(np.int64)
        group_run_bounds = np.concatenate(
            (np.searchsorted(run_starts, group_starts), [run_starts.shape[0]])
        ).astype(np.int64)
        return cls(
            columns[order[group_starts]],
            group_run_bounds,
            run_bounds,
            sa[order[run_starts]],
            order,
        )

    @classmethod
    def _build_from_wide_scan(
        cls, columns: np.ndarray, sa: np.ndarray, order: np.ndarray
    ) -> "GroupingContext":
        """Boundary scan over the full gathered QI matrix.

        Used when the composite packing overflows 62 bits, and by the
        tests' oracle of :meth:`build` at every width.
        """
        n = columns.shape[0]
        ordered_columns = columns[order]
        ordered_sa = sa[order]
        if n == 1:
            new_group = np.zeros(0, dtype=bool)
        else:
            new_group = np.any(ordered_columns[1:] != ordered_columns[:-1], axis=1)
        new_run = new_group | (ordered_sa[1:] != ordered_sa[:-1])
        group_starts = np.concatenate(([0], np.flatnonzero(new_group) + 1))
        run_starts = np.concatenate(([0], np.flatnonzero(new_run) + 1))
        run_bounds = np.concatenate((run_starts, [n])).astype(np.int64)
        group_run_bounds = np.concatenate(
            (np.searchsorted(run_starts, group_starts), [run_starts.shape[0]])
        ).astype(np.int64)
        return cls(
            ordered_columns[group_starts],
            group_run_bounds,
            run_bounds,
            ordered_sa[run_starts],
            order,
        )

    # ----------------------------------------------------------------- basics

    @property
    def n(self) -> int:
        """Number of rows."""
        return self.order.shape[0]

    @property
    def group_count(self) -> int:
        """Number ``s`` of distinct QI vectors."""
        return self.group_keys.shape[0]

    @property
    def run_count(self) -> int:
        """Number ``r`` of maximal constant ``(QI, SA)`` runs."""
        return self.run_values.shape[0]

    def arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The five core arrays in the historical ``qi_sa_runs_arrays`` order."""
        return (
            self.group_keys,
            self.group_run_bounds,
            self.run_bounds,
            self.run_values,
            self.order,
        )

    # ------------------------------------------------------------ derivations

    @property
    def run_lengths(self) -> np.ndarray:
        """``(r,)`` length of every ``(QI, SA)`` run."""
        if self._run_lengths is None:
            self._run_lengths = np.diff(self.run_bounds)
        return self._run_lengths

    @property
    def group_row_bounds(self) -> np.ndarray:
        """``(s + 1,)`` row-span boundaries of each group inside ``order``."""
        if self._group_row_bounds is None:
            self._group_row_bounds = self.run_bounds[self.group_run_bounds]
        return self._group_row_bounds

    def group_sizes_heights(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-group tuple counts and pillar heights (one fused pass, cached)."""
        if self._sizes is None:
            self._sizes, self._heights = kernels.group_sizes_heights(
                self.run_lengths, self.group_run_bounds
            )
        return self._sizes, self._heights

    @property
    def run_group_ids(self) -> np.ndarray:
        """``(r,)`` group id of every run."""
        if self._run_group_ids is None:
            self._run_group_ids = np.repeat(
                np.arange(self.group_count, dtype=np.int64),
                np.diff(self.group_run_bounds),
            )
        return self._run_group_ids

    def group_by_qi(self) -> dict[tuple[int, ...], list[int]]:
        """``{QI vector: ascending row indices}`` derived without a second lexsort.

        The context's ``order`` sorts by ``(QI, SA)``, so within a group the
        rows are SA-ordered, not index-ordered.  Scattering each row's group
        id and stably sorting that (the packed value sort of
        :func:`~repro.core.kernels.stable_sort_pairs`, ~5x a stable argsort)
        restores ascending row indices per group — the exact contract of the
        reference grouping — while reusing the boundaries already computed.
        Keys come out in ascending QI order, matching the historical
        vectorized grouping.
        """
        if self.n == 0:
            return {}
        bounds = self.group_row_bounds
        row_group = np.empty(self.n, dtype=np.int64)
        row_group[self.order] = np.repeat(
            np.arange(self.group_count, dtype=np.int64), np.diff(bounds)
        )
        by_group, _ = kernels.stable_sort_pairs(row_group, self.group_count)
        keys = self.group_keys.tolist()
        ordered = by_group.tolist()
        bounds_list = bounds.tolist()
        return {
            tuple(key): ordered[start:end]
            for key, start, end in zip(keys, bounds_list[:-1], bounds_list[1:])
        }
