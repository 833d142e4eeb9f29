"""Multiset state of a QI-group or of the residue set ``R``.

Section 5.5 of the paper maintains, for every QI-group ``Q_i`` and for the
residue set ``R``, an inverted-list array whose ``j``-th entry holds the
sensitive values occurring exactly ``j`` times, together with a pointer to
the highest non-empty entry (the pillars).  :class:`GroupState` is the Python
counterpart: additions and removals cost O(1) amortised, and the pillar
height / pillar set are available in O(1).

Its twin without inverted lists (same interface, the maximum recomputed on
every read) lives in ``tests/tp_oracle.py``: it is the oracle of the property
tests and the baseline of the inverted-lists ablation
(``benchmarks/bench_ablation_inverted_lists.py``).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.core.eligibility import is_l_eligible_counts

__all__ = ["GroupState"]

#: Shared empty pillar set returned by the non-copying views.
_EMPTY_PILLARS: frozenset[int] = frozenset()


class GroupState:
    """A multiset of (sensitive value, row index) pairs with pillar tracking.

    The same class serves QI-groups (which only ever lose tuples during the
    algorithm) and the residue set ``R`` (which only ever gains tuples), so
    both directions of update are supported.
    """

    __slots__ = ("_counts", "_rows", "_buckets", "_height", "_size")

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._rows: dict[int, list[int]] = {}
        # ``None`` means "not materialized yet": bulk construction defers the
        # count -> values inversion until the first update or pillar read,
        # because most QI-groups are born l-eligible and never touched.
        self._buckets: dict[int, set[int]] | None = {}
        self._height = 0
        self._size = 0

    def _materialize_buckets(self) -> None:
        buckets: dict[int, set[int]] = {}
        for value, count in self._counts.items():
            bucket = buckets.get(count)
            if bucket is None:
                buckets[count] = {value}
            else:
                bucket.add(value)
        self._buckets = buckets

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "GroupState":
        """Build a state from ``(sensitive value, row index)`` pairs."""
        state = cls()
        for value, row in pairs:
            state.add(value, row)
        return state

    def bulk_append(self, runs: Iterable[tuple[int, list[int]]]) -> None:
        """Merge pre-grouped ``(value, rows)`` runs into a possibly non-empty state.

        Equivalent to calling :meth:`add` once per row, but with O(1) dict
        work per run and no bucket churn: the inverted lists are invalidated
        wholesale and re-materialized on the next update or pillar read.
        The fused phase-one kernel uses this to pour a whole group's shaved
        tuples into the residue set at once.  A value may appear both in the
        state and in a run (rows are appended); height and size are kept
        exact.
        """
        counts = self._counts
        rows = self._rows
        height = self._height
        size = self._size
        for value, value_rows in runs:
            added = len(value_rows)
            if added == 0:
                continue
            new = counts.get(value, 0) + added
            counts[value] = new
            existing = rows.get(value)
            if existing is None:
                rows[value] = list(value_rows)
            else:
                existing.extend(value_rows)
            if new > height:
                height = new
            size += added
        self._height = height
        self._size = size
        self._buckets = None  # materialized on first update / pillar read

    # ----------------------------------------------------------------- reads

    @property
    def size(self) -> int:
        """Number of tuples currently in the multiset (``|Q|`` or ``|R|``)."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """The pillar height ``h(Q)`` (0 when empty)."""
        return self._height

    def count(self, value: int) -> int:
        """The multiplicity ``h(Q, v)`` of sensitive value ``value``."""
        return self._counts.get(value, 0)

    def pillars(self) -> set[int]:
        """The set of pillar sensitive values (a copy; safe to mutate)."""
        if self._height == 0:
            return set()
        if self._buckets is None:
            self._materialize_buckets()
        return set(self._buckets[self._height])

    def pillars_view(self) -> frozenset[int] | set[int]:
        """The pillar set *without* copying — strictly read-only.

        The phases call this in their inner loops (liveness checks, greedy
        cover, conflict tests), where the per-call copy made by
        :meth:`pillars` dominated the cost.  Callers must not mutate the
        result and must not hold it across an :meth:`add`/:meth:`remove_one`.
        """
        if self._height == 0:
            return _EMPTY_PILLARS
        if self._buckets is None:
            self._materialize_buckets()
        return self._buckets[self._height]

    def values_present(self) -> list[int]:
        """Sensitive values with non-zero multiplicity, in ascending order."""
        return sorted(self._counts)

    def values_view(self):
        """Sensitive values with non-zero multiplicity, unordered, no copy.

        A dict-keys view: read-only, invalidated by updates.  Used by the
        phases wherever the selection is order-independent (min-by-key
        scans, seeding sets), avoiding the per-call sort of
        :meth:`values_present`.
        """
        return self._counts.keys()

    def distinct_value_count(self) -> int:
        return len(self._counts)

    def counts(self) -> Counter[int]:
        """A copy of the histogram ``{v: h(Q, v)}``."""
        return Counter(self._counts)

    def rows(self) -> list[int]:
        """All row indices currently in the multiset (unordered)."""
        collected: list[int] = []
        for rows in self._rows.values():
            collected.extend(rows)
        return collected

    def iter_rows(self) -> Iterable[int]:
        """Iterate over the row indices without building a list.

        Read-only and invalidated by updates, like :meth:`values_view`.
        """
        for rows in self._rows.values():
            yield from rows

    def rows_of(self, value: int) -> list[int]:
        """Row indices carrying sensitive value ``value`` (a copy)."""
        return list(self._rows.get(value, ()))

    # ------------------------------------------------------------ eligibility

    def is_l_eligible(self, l: int) -> bool:
        """Definition 2: at most ``|Q| / l`` tuples share a sensitive value."""
        return is_l_eligible_counts(self._size, self._height, l)

    def is_thin(self, l: int) -> bool:
        """Section 5.3: l-eligible with ``|Q| = l * h(Q)`` exactly."""
        return self._size == l * self._height

    def is_fat(self, l: int) -> bool:
        """Section 5.3: l-eligible with at least one tuple of slack."""
        return self._size >= l * self._height + 1

    # ---------------------------------------------------------------- updates

    def add(self, value: int, row: int) -> None:
        """Insert one tuple with sensitive value ``value`` and row index ``row``."""
        if self._buckets is None:
            self._materialize_buckets()
        old = self._counts.get(value, 0)
        new = old + 1
        if old > 0:
            bucket = self._buckets[old]
            bucket.discard(value)
            if not bucket:
                del self._buckets[old]
        self._buckets.setdefault(new, set()).add(value)
        self._counts[value] = new
        self._rows.setdefault(value, []).append(row)
        self._size += 1
        if new > self._height:
            self._height = new

    def remove_one(self, value: int) -> int:
        """Remove one tuple with sensitive value ``value`` and return its row index.

        Raises
        ------
        KeyError
            If no tuple with that sensitive value is present.
        """
        old = self._counts.get(value, 0)
        if old == 0:
            raise KeyError(f"sensitive value {value} not present")
        if self._buckets is None:
            self._materialize_buckets()
        new = old - 1
        bucket = self._buckets[old]
        bucket.discard(value)
        if not bucket:
            del self._buckets[old]
        if new > 0:
            self._buckets.setdefault(new, set()).add(value)
            self._counts[value] = new
        else:
            del self._counts[value]
        row = self._rows[value].pop()
        if not self._rows[value]:
            del self._rows[value]
        self._size -= 1
        if old == self._height and old not in self._buckets:
            # The pillar pointer only ever travels downwards for QI-groups, so
            # this loop costs O(1) amortised over the whole algorithm.
            height = self._height
            while height > 0 and height not in self._buckets:
                height -= 1
            self._height = height
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupState(size={self._size}, height={self._height}, counts={dict(sorted(self._counts.items()))})"

