"""Joint state of the three-phase algorithm: QI-groups plus the residue set.

Section 5.1 reformulates tuple minimization as: partition the microdata into
its natural QI-groups ``Q_1..Q_s`` (tuples agreeing on every QI attribute),
then move the minimum number of tuples to a residue set ``R`` such that every
``Q_i`` and ``R`` are l-eligible.  :class:`AlgorithmState` owns that state
and the vocabulary the phases use: thin/fat, conflicting, dead/alive.

The per-group multiset states are **lazy**: the state keeps the table's run
encoding (the shared :meth:`Table.grouping` context) plus per-group
size/height arrays computed by one fused
:func:`~repro.core.kernels.group_sizes_heights` pass, and a
:class:`~repro.core.groups.GroupState` is only materialized for the groups a
phase actually mutates.  Every read the phases need — size, height,
eligibility, pillars, liveness, per-value counts — is answered from the
arrays for untouched groups, which is what makes million-row tables viable:
the overwhelming majority of QI-groups are born l-eligible and never touched,
so they never pay for Python dicts, and whole-state sweeps (phase one's
ineligible scan, phase three's cover/kill passes) become NumPy kernels.
Materialization is observationally lossless: the dicts built from the run
arrays are exactly the ones inserting every tuple of the group one at a time
(sensitive values ascending, rows ascending) would produce; the per-tuple
oracle in ``tests/tp_oracle.py`` builds its groups that way.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core import kernels
from repro.core.groups import GroupState
from repro.dataset.table import Table
from repro.errors import AlgorithmInvariantError, IneligibleTableError

__all__ = ["AlgorithmState"]


class AlgorithmState:
    """All QI-groups and the residue set ``R`` of a run of the algorithm.

    Parameters
    ----------
    table:
        The microdata table.
    l:
        The diversity parameter.  The table must be l-eligible (Lemma 1).
    """

    def __init__(self, table: Table, l: int) -> None:
        if l < 2:
            raise ValueError(f"l must be >= 2 for anonymization, got {l}")
        if not table.is_l_eligible(l):
            raise IneligibleTableError(
                f"table with {len(table)} rows is not {l}-eligible: some sensitive "
                "value occurs more than n/l times, so no l-diverse generalization exists"
            )
        self._table = table
        self._l = l
        # The shared grouping context sorts the rows by ``(QI vector,
        # sensitive value)``, which yields every QI-group as a contiguous
        # block (already in the deterministic sorted-key order) and, inside
        # each block, every sensitive value as a contiguous run.  It caches
        # every derived array (run lengths, group row bounds, the fused
        # size/height pass), so the state shares them with the metrics
        # instead of re-deriving; an empty table yields empty arrays.
        context = table.grouping()
        self._context = context
        (
            self._group_keys_arr,
            self._group_run_bounds,
            self._run_bounds,
            self._run_values,
            self._order,
        ) = context.arrays()
        self._run_lengths = context.run_lengths
        self._sizes, self._heights = context.group_sizes_heights()
        # Row-span boundaries of each group inside ``order`` (s + 1 entries).
        self._group_row_bounds = context.group_row_bounds
        self._group_keys: list[tuple[int, ...]] | None = None
        # ``None`` until a phase mutates the group (:meth:`_materialize`).
        self._groups: list[GroupState | None] = [None] * self._sizes.shape[0]
        self._materialized: set[int] = set()
        self._pillar_cache: dict[int, frozenset[int]] = {}
        self._pillar_runs: tuple[np.ndarray, np.ndarray] | None = None
        self._residue = GroupState()

    # ---------------------------------------------------------- materialization

    def _materialize(self, group_id: int) -> GroupState:
        """Build the mutable :class:`GroupState` of one still-untouched group.

        The dicts are filled in run order (sensitive values ascending, row
        indices ascending within a value) — exactly the insertion order of
        one :meth:`GroupState.add` per tuple in row order, so everything
        downstream (row concatenation order included) is bit-identical.
        """
        first = int(self._group_run_bounds[group_id])
        last = int(self._group_run_bounds[group_id + 1])
        values = self._run_values[first:last].tolist()
        bounds = self._run_bounds[first : last + 1].tolist()
        order = self._order
        counts: dict[int, int] = {}
        rows: dict[int, list[int]] = {}
        for value, start, end in zip(values, bounds[:-1], bounds[1:]):
            counts[value] = end - start
            rows[value] = order[start:end].tolist()
        return self._adopt(
            group_id,
            counts,
            rows,
            int(self._heights[group_id]),
            int(self._sizes[group_id]),
        )

    def _adopt(
        self,
        group_id: int,
        counts: dict[int, int],
        rows: dict[int, list[int]],
        height: int,
        size: int,
    ) -> GroupState:
        """Install a group's mutable state built straight from the run arrays."""
        group = GroupState.__new__(GroupState)
        group._counts = counts
        group._rows = rows
        group._buckets = None  # materialized on first update / pillar read
        group._height = height
        group._size = size
        self._groups[group_id] = group
        self._materialized.add(group_id)
        self._pillar_cache.pop(group_id, None)
        return group

    # ----------------------------------------------------------------- basics

    @property
    def table(self) -> Table:
        return self._table

    @property
    def l(self) -> int:
        return self._l

    @property
    def groups(self) -> Sequence[GroupState]:
        """All per-group states (materializing any still-lazy ones)."""
        if len(self._materialized) < len(self._groups):
            for group_id in range(len(self._groups)):
                if self._groups[group_id] is None:
                    self._materialize(group_id)
        return self._groups  # type: ignore[return-value]

    @property
    def residue(self) -> GroupState:
        return self._residue

    @property
    def group_count(self) -> int:
        """The number ``s`` of initial QI-groups."""
        return len(self._groups)

    def group(self, group_id: int) -> GroupState:
        group = self._groups[group_id]
        if group is None:
            group = self._materialize(group_id)
        return group

    def group_qi_vector(self, group_id: int) -> tuple[int, ...]:
        """The (common) QI vector of the tuples initially in ``group_id``."""
        if self._group_keys is None:
            self._group_keys = [tuple(key) for key in self._group_keys_arr.tolist()]
        return self._group_keys[group_id]

    # ------------------------------------------------------------ fast queries
    #
    # Array-backed reads for groups that were never mutated; materialized
    # groups delegate to their GroupState.  The phases use these in their
    # whole-state sweeps so that untouched groups never build Python dicts.

    def group_size(self, group_id: int) -> int:
        group = self._groups[group_id]
        if group is not None:
            return group.size
        return int(self._sizes[group_id])

    def group_height(self, group_id: int) -> int:
        group = self._groups[group_id]
        if group is not None:
            return group.height
        return int(self._heights[group_id])

    def group_is_l_eligible(self, group_id: int) -> bool:
        group = self._groups[group_id]
        if group is not None:
            return group.is_l_eligible(self._l)
        return bool(self._heights[group_id] * self._l <= self._sizes[group_id])

    def group_pillars_view(self, group_id: int) -> frozenset[int] | set[int]:
        """The group's pillar set without materializing it (read-only)."""
        group = self._groups[group_id]
        if group is not None:
            return group.pillars_view()
        cached = self._pillar_cache.get(group_id)
        if cached is None:
            first = self._group_run_bounds[group_id]
            last = self._group_run_bounds[group_id + 1]
            lengths = self._run_lengths[first:last]
            values = self._run_values[first:last]
            cached = frozenset(values[lengths == self._heights[group_id]].tolist())
            self._pillar_cache[group_id] = cached
        return cached

    def group_values_iter(self, group_id: int):
        """The group's distinct sensitive values (read-only iterable)."""
        group = self._groups[group_id]
        if group is not None:
            return group.values_view()
        first = self._group_run_bounds[group_id]
        last = self._group_run_bounds[group_id + 1]
        return self._run_values[first:last].tolist()

    def group_count_of(self, group_id: int, value: int) -> int:
        """``h(Q, v)`` without materializing the group."""
        group = self._groups[group_id]
        if group is not None:
            return group.count(value)
        first = int(self._group_run_bounds[group_id])
        last = int(self._group_run_bounds[group_id + 1])
        values = self._run_values[first:last]
        position = int(np.searchsorted(values, value))
        if position >= values.shape[0] or int(values[position]) != value:
            return 0
        return int(
            self._run_bounds[first + position + 1] - self._run_bounds[first + position]
        )

    def ineligible_group_ids(self) -> list[int]:
        """Ascending ids of the groups violating Definition 2, one fused pass."""
        l = self._l
        mask = self._heights * l > self._sizes
        for group_id in self._materialized:
            mask[group_id] = not self._groups[group_id].is_l_eligible(l)
        return np.flatnonzero(mask).tolist()

    def values_to_groups(self) -> dict[int, set[int]]:
        """``{sensitive value: ids of non-empty groups holding it}``.

        Phase two's seeding index: one stable argsort over the run values
        instead of a per-group Python loop; materialized groups are merged
        in from their dicts.
        """
        result: dict[int, set[int]] = {}
        run_gids = self._context.run_group_ids
        values = self._run_values
        if self._materialized:
            stale = np.zeros(len(self._groups), dtype=bool)
            stale[list(self._materialized)] = True
            keep = ~stale[run_gids]
            values = values[keep]
            run_gids = run_gids[keep]
        if values.size:
            sort = np.argsort(values, kind="stable")
            sorted_values = values[sort]
            sorted_gids = run_gids[sort].tolist()
            boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [sorted_values.shape[0]]))
            for value, start, end in zip(
                sorted_values[starts].tolist(), starts.tolist(), ends.tolist()
            ):
                result[value] = set(sorted_gids[start:end])
        for group_id in sorted(self._materialized):
            group = self._groups[group_id]
            if group.size == 0:
                continue
            for value in group.values_view():
                result.setdefault(value, set()).add(group_id)
        return result

    def pillar_overlap_counts(self, pending: set[int]) -> np.ndarray:
        """``|pillars(Q) ∩ pending|`` for every group.

        Backs the greedy SET-COVER step of phase three: the static pillar
        runs (valid for every never-mutated group) go through the chunked
        :func:`~repro.core.kernels.pillar_overlap_counts` kernel, and the
        few materialized groups are overridden from their live pillar sets.
        Entries of *empty* materialized groups are 0; callers mask
        candidates by size anyway.
        """
        if self._pillar_runs is None:
            run_gids = self._context.run_group_ids
            is_pillar = self._run_lengths == self._heights[run_gids]
            self._pillar_runs = (run_gids[is_pillar], self._run_values[is_pillar])
        gids, values = self._pillar_runs
        counts = kernels.pillar_overlap_counts(
            gids, values, pending, len(self._groups)
        )
        for group_id in self._materialized:
            group = self._groups[group_id]
            counts[group_id] = (
                len(pending & set(group.pillars_view())) if group.size else 0
            )
        return counts

    def group_sizes_array(self) -> np.ndarray:
        """Current per-group sizes as an array."""
        sizes = self._sizes.copy()
        for group_id in self._materialized:
            sizes[group_id] = self._groups[group_id].size
        return sizes

    # -------------------------------------------------------------- movements

    def move_to_residue(self, group_id: int, value: int) -> int:
        """Move one tuple with sensitive value ``value`` from a group to ``R``.

        Returns the row index of the moved tuple.  This is the only way
        tuples ever change sides; the paper notes tuples are moved to ``R``
        but never taken back.
        """
        row = self.group(group_id).remove_one(value)
        self._residue.add(value, row)
        return row

    def shave_group_bulk(self, group_id: int) -> int:
        """Phase one's whole shave of one group as a single bulk operation.

        Equivalent to ``move_to_residue(group_id, min(pillars))`` repeated
        until the group is l-eligible: the stopping height has a closed form
        (:func:`~repro.core.kernels.phase_one_stop_height`), the surviving
        histogram is exactly ``min(c_v, stop)``, and — because
        :meth:`GroupState.remove_one` pops row indices from the tail of the
        ascending per-value lists — the removed rows are exactly the highest
        ``c_v - stop`` indices of each over-tall value.  The group is
        materialized directly in its post-shave form.  Returns the number of
        tuples moved.

        Phase one runs first, so the group must still be untouched; shaving
        a group some earlier move already materialized raises
        :class:`~repro.errors.AlgorithmInvariantError`.
        """
        if self._groups[group_id] is not None:
            raise AlgorithmInvariantError(
                f"group {group_id} was mutated before its phase-one shave"
            )
        l = self._l
        size = int(self._sizes[group_id])
        height = int(self._heights[group_id])
        if height * l <= size:
            return 0
        first = int(self._group_run_bounds[group_id])
        last = int(self._group_run_bounds[group_id + 1])
        values = self._run_values[first:last].tolist()
        bounds = self._run_bounds[first : last + 1].tolist()
        lengths = [end - start for start, end in zip(bounds[:-1], bounds[1:])]
        stop, removed = kernels.phase_one_stop_height(lengths, size, height, l)
        order = self._order
        counts: dict[int, int] = {}
        rows: dict[int, list[int]] = {}
        shaved: list[tuple[int, list[int]]] = []
        for value, start, end in zip(values, bounds[:-1], bounds[1:]):
            count = end - start
            keep = count if count <= stop else stop
            if keep:
                counts[value] = keep
                rows[value] = order[start : start + keep].tolist()
            if keep != count:
                shaved.append((value, order[start + keep : end].tolist()))
        self._adopt(group_id, counts, rows, stop if counts else 0, size - removed)
        self._residue.bulk_append(shaved)
        return removed

    # ------------------------------------------------------------ vocabulary

    def group_is_thin(self, group_id: int) -> bool:
        group = self._groups[group_id]
        if group is not None:
            return group.is_thin(self._l)
        return int(self._sizes[group_id]) == self._l * int(self._heights[group_id])

    def group_is_fat(self, group_id: int) -> bool:
        group = self._groups[group_id]
        if group is not None:
            return group.is_fat(self._l)
        return int(self._sizes[group_id]) >= self._l * int(self._heights[group_id]) + 1

    def conflicting_pillars(self, group_id: int) -> set[int]:
        """``C(Q)``: pillars of the group that are also pillars of ``R``."""
        # Intersecting the read-only views allocates only the result set.
        return set(self.group_pillars_view(group_id) & self._residue.pillars_view())

    def group_is_conflicting(self, group_id: int) -> bool:
        return not self.group_pillars_view(group_id).isdisjoint(
            self._residue.pillars_view()
        )

    def group_is_dead(self, group_id: int) -> bool:
        """Dead = thin and conflicting (cannot shed tuples without harm)."""
        if self.group_size(group_id) == 0:
            return True
        return self.group_is_thin(group_id) and self.group_is_conflicting(group_id)

    def group_is_alive(self, group_id: int) -> bool:
        return not self.group_is_dead(group_id)

    def residue_is_eligible(self) -> bool:
        """Inequality (1): ``|R| >= l * h(R)``."""
        return self._residue.is_l_eligible(self._l)

    # --------------------------------------------------------------- outputs

    def retained_group_arrays(self) -> list:
        """Row indices of the non-empty QI-groups (zero stars each).

        Untouched groups come back as read-only ndarray spans of ``order``
        (sensitive-value runs, ascending rows within a run); materialized
        groups yield :meth:`GroupState.rows` lists, in the same order.  The
        vectorized publish path consumes either without materializing
        millions of Python ints.
        """
        order = self._order
        row_bounds = self._group_row_bounds
        collected: list = []
        for group_id, group in enumerate(self._groups):
            if group is None:
                collected.append(order[row_bounds[group_id] : row_bounds[group_id + 1]])
            elif group.size > 0:
                collected.append(group.rows())
        return collected

    def residue_rows(self) -> list[int]:
        """Row indices currently in the residue set ``R``."""
        return self._residue.rows()

    def removed_tuple_count(self) -> int:
        """``|R|``: the tuple-minimization objective."""
        return self._residue.size
