"""Per-tuple oracle of the three-phase algorithm, and the naive group state.

A test-local copy of TP as Sections 5.1-5.4 state it, one tuple at a time
over plain per-group multisets:

* one state per QI-group, built by :meth:`add` in row order, the groups in
  ascending QI-vector order;
* phase one removes one tuple from the smallest pillar of a group until the
  group is l-eligible;
* phase two keeps a min-heap of ``(h(R, v), v)`` and finds an alive group
  for ``v`` by scanning ``sorted(candidates)``;
* phase three's greedy cover scans the non-empty groups in ascending id and
  keeps the first strict minimum of ``|pillars(Q) ∩ P|``.

The production algorithm (``repro.core.state`` and the phase modules) works
on the table's run encoding instead and shaves, covers and seeds in bulk;
this module shares none of that code, so agreement is a real check.

Phase one's shave of one histogram also has a scalar oracle here, the
one-removal-at-a-time simulation (:func:`phase_one_stop_height_reference`),
against which the vectorized
:func:`repro.core.kernels.phase_one_stop_heights` is checked.

:class:`NaiveGroupState` is :class:`~repro.core.groups.GroupState` without
the Section 5.5 inverted lists: the pillar height and set are recomputed on
every read.  It is the property-test oracle of ``GroupState`` and the
baseline of the inverted-lists ablation
(``benchmarks/bench_ablation_inverted_lists.py``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.core.eligibility import is_l_eligible_counts
from repro.core.groups import GroupState
from repro.core.three_phase import ThreePhaseStats

__all__ = [
    "NaiveGroupState",
    "OracleRun",
    "initial_groups",
    "phase_one_stop_height_reference",
    "run_tp",
]


class NaiveGroupState:
    """A multiset of ``(sensitive value, row)`` pairs without bucket upkeep.

    Same interface as :class:`~repro.core.groups.GroupState`; ``height`` and
    ``pillars`` scan the histogram on every call.
    """

    __slots__ = ("_counts", "_rows", "_size")

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._rows: dict[int, list[int]] = {}
        self._size = 0

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "NaiveGroupState":
        state = cls()
        for value, row in pairs:
            state.add(value, row)
        return state

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return max(self._counts.values(), default=0)

    def count(self, value: int) -> int:
        return self._counts.get(value, 0)

    def pillars(self) -> set[int]:
        height = self.height
        if height == 0:
            return set()
        return {value for value, count in self._counts.items() if count == height}

    def pillars_view(self) -> set[int]:
        # No stored pillar set to expose: recompute (the point of this class
        # is to pay the scan on every read).
        return self.pillars()

    def values_present(self) -> list[int]:
        return sorted(self._counts)

    def values_view(self):
        return self._counts.keys()

    def distinct_value_count(self) -> int:
        return len(self._counts)

    def counts(self) -> Counter[int]:
        return Counter(self._counts)

    def rows(self) -> list[int]:
        collected: list[int] = []
        for rows in self._rows.values():
            collected.extend(rows)
        return collected

    def iter_rows(self) -> Iterable[int]:
        for rows in self._rows.values():
            yield from rows

    def rows_of(self, value: int) -> list[int]:
        return list(self._rows.get(value, ()))

    def is_l_eligible(self, l: int) -> bool:
        return is_l_eligible_counts(self._size, self.height, l)

    def is_thin(self, l: int) -> bool:
        return self._size == l * self.height

    def is_fat(self, l: int) -> bool:
        return self._size >= l * self.height + 1

    def add(self, value: int, row: int) -> None:
        self._counts[value] = self._counts.get(value, 0) + 1
        self._rows.setdefault(value, []).append(row)
        self._size += 1

    def remove_one(self, value: int) -> int:
        if self._counts.get(value, 0) == 0:
            raise KeyError(f"sensitive value {value} not present")
        self._counts[value] -= 1
        if self._counts[value] == 0:
            del self._counts[value]
        row = self._rows[value].pop()
        if not self._rows[value]:
            del self._rows[value]
        self._size -= 1
        return row


@dataclass
class OracleRun:
    """The end state of one per-tuple TP run."""

    groups: list
    residue: object
    stats: ThreePhaseStats

    def residue_rows(self) -> list[int]:
        return sorted(self.residue.rows())

    def partition_groups(self) -> list[list[int]]:
        """The published partition: non-empty groups, then the residue."""
        groups = [sorted(group.rows()) for group in self.groups if group.size > 0]
        if self.residue.size:
            groups.append(self.residue_rows())
        return groups


def phase_one_stop_height_reference(counts: Sequence[int], l: int) -> tuple[int, int]:
    """Simulate the one-removal-at-a-time shave on a histogram."""
    histogram = Counter()
    for index, count in enumerate(counts):
        histogram[index] = count
    size = sum(histogram.values())
    removed = 0
    while histogram:
        height = max(histogram.values())
        if height * l <= size:
            return height, removed
        pillar = min(v for v, c in histogram.items() if c == height)
        histogram[pillar] -= 1
        if histogram[pillar] == 0:
            del histogram[pillar]
        size -= 1
        removed += 1
    return 0, removed


def initial_groups(table, state_factory: Callable[[], object] = GroupState) -> list:
    """One state per QI-group, by :meth:`add` in row order, keys ascending."""
    rows_by_key: dict[tuple[int, ...], list[int]] = {}
    for row, key in enumerate(table.qi_rows):
        rows_by_key.setdefault(key, []).append(row)
    groups = []
    for key in sorted(rows_by_key):
        group = state_factory()
        for row in rows_by_key[key]:
            group.add(table.sa_value(row), row)
        groups.append(group)
    return groups


def run_tp(table, l: int, state_factory: Callable[[], object] = GroupState) -> OracleRun:
    """Run TP one tuple at a time; ``table`` must be l-eligible."""
    groups = initial_groups(table, state_factory)
    run = _Run(groups, state_factory(), l)

    phase1_moved = run.phase_one()
    residue_height = run.residue.height
    residue_size = run.residue.size
    phase2_moved = phase3_moved = iterations = rounds = 0
    phase_reached = 1
    if not run.eligible():
        phase_reached = 2
        phase2_moved, iterations = run.phase_two()
        if not run.eligible():
            phase_reached = 3
            phase3_moved, rounds = run.phase_three()
    stats = ThreePhaseStats(
        l=l,
        phase_reached=phase_reached,
        initial_group_count=len(groups),
        phase1_moved=phase1_moved,
        phase2_moved=phase2_moved,
        phase3_moved=phase3_moved,
        phase2_iterations=iterations,
        phase3_rounds=rounds,
        residue_height_after_phase1=residue_height,
        residue_size_after_phase1=residue_size,
        removed_tuples=run.residue.size,
    )
    return OracleRun(groups, run.residue, stats)


class _Run:
    """Groups, residue and the per-tuple moves of one oracle run."""

    def __init__(self, groups: list, residue, l: int) -> None:
        self.groups = groups
        self.residue = residue
        self.l = l
        self.moved = 0

    def eligible(self) -> bool:
        return self.residue.is_l_eligible(self.l)

    def move(self, group_id: int, value: int) -> None:
        self.residue.add(value, self.groups[group_id].remove_one(value))
        self.moved += 1

    def dead(self, group_id: int) -> bool:
        group = self.groups[group_id]
        if group.size == 0:
            return True
        conflicting = not group.pillars_view().isdisjoint(self.residue.pillars_view())
        return group.is_thin(self.l) and conflicting

    # ------------------------------------------------------------ phase one

    def phase_one(self) -> int:
        for group_id, group in enumerate(self.groups):
            while not group.is_l_eligible(self.l):
                self.move(group_id, min(group.pillars_view()))
        return self.moved

    # ------------------------------------------------------------ phase two

    def phase_two(self) -> tuple[int, int]:
        start = self.moved
        residue = self.residue
        groups_with_value: dict[int, set[int]] = {}
        for group_id, group in enumerate(self.groups):
            for value in group.values_view():
                groups_with_value.setdefault(value, set()).add(group_id)
        heap = [(residue.count(value), value) for value in groups_with_value]
        heapq.heapify(heap)
        exhausted: set[int] = set()
        iterations = 0
        while heap and not self.eligible():
            frequency, value = heapq.heappop(heap)
            if value in exhausted or frequency != residue.count(value):
                continue
            group_id = self._alive_group(groups_with_value[value], value)
            if group_id is None:
                exhausted.add(value)
                continue
            iterations += 1
            group = self.groups[group_id]
            if group.is_fat(self.l):
                touched = [value]
            else:
                touched = sorted(group.pillars_view())
            for moved_value in touched:
                self.move(group_id, moved_value)
            for changed in touched:
                if changed not in exhausted:
                    heapq.heappush(heap, (residue.count(changed), changed))
            if value not in touched:
                heapq.heappush(heap, (residue.count(value), value))
        return self.moved - start, iterations

    def _alive_group(self, candidates: set[int], value: int) -> int | None:
        for group_id in sorted(candidates):
            if self.groups[group_id].count(value) == 0 or self.dead(group_id):
                candidates.discard(group_id)
                continue
            return group_id
        return None

    # ---------------------------------------------------------- phase three

    def phase_three(self) -> tuple[int, int]:
        start = self.moved
        rounds = 0
        while not self.eligible():
            rounds += 1
            before = self.moved
            self._round()
            if not self.eligible() and self.moved == before:
                raise AssertionError("phase three made no progress in a round")
        return self.moved - start, rounds

    def _round(self) -> None:
        for group_id in self._greedy_cover():
            for pillar in sorted(self.groups[group_id].pillars_view()):
                self.move(group_id, pillar)
            if self.eligible():
                return
        progressed = True
        while progressed:
            progressed = False
            for group_id in range(len(self.groups)):
                before = self.moved
                self._kill(group_id)
                if self.eligible():
                    return
                progressed = progressed or self.moved > before

    def _greedy_cover(self) -> list[int]:
        pending = self.residue.pillars()
        candidates = [
            group_id for group_id, group in enumerate(self.groups) if group.size > 0
        ]
        selected: list[int] = []
        while pending:
            best_group = None
            best_overlap: set[int] | None = None
            for group_id in candidates:
                if group_id in selected:
                    continue
                overlap = self.groups[group_id].pillars_view() & pending
                if best_overlap is None or len(overlap) < len(best_overlap):
                    best_group, best_overlap = group_id, overlap
            if best_group is None or len(best_overlap) == len(pending):
                raise AssertionError("greedy cover cannot make progress")
            selected.append(best_group)
            pending = best_overlap
        return selected

    def _kill(self, group_id: int) -> None:
        group = self.groups[group_id]
        while not self.dead(group_id):
            if group.is_fat(self.l):
                pillars = self.residue.pillars_view()
                value = min(
                    (self.residue.count(value), value)
                    for value in group.values_view()
                    if value not in pillars
                )[1]
                self.move(group_id, value)
            else:
                for pillar in sorted(group.pillars_view()):
                    self.move(group_id, pillar)
            if self.eligible():
                return
