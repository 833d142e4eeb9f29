"""Phase two of the three-phase algorithm (Section 5.3).

Phase two grows ``|R|`` while keeping ``h(R)`` unchanged.  Each iteration
picks the *least frequent alive* sensitive value ``v`` in ``R`` (alive means
some alive QI-group still holds a tuple with value ``v``), finds an alive
group containing ``v`` and either

* removes one tuple with value ``v`` when the group is *fat*, or
* removes one tuple from each of the group's pillars when the group is
  *thin* (a thin alive group is necessarily non-conflicting).

The phase ends as soon as ``R`` becomes l-eligible (additive error at most
``l - 1`` tuples, Corollary 3) or when no alive sensitive value remains, in
which case phase three takes over.

The value selection mirrors the candidate list ``C`` of Section 5.5: we
keep a lazily-updated min-heap keyed by ``h(R, v)``.  Entries are refreshed
whenever ``h(R, v)`` changes, and values that stop being alive are discarded
permanently — which is sound because, during phase two, groups can only die
(they never regain tuples and the pillar set of ``R`` only grows).

The group selection keeps one candidate heap per value: the ascending ids of
the groups holding it (:meth:`~repro.core.state.AlgorithmState.values_to_groups`
builds them in one array pass, already heap-ordered).  Finding an alive group
peeks at the top and pops dead or emptied groups for good.  By Lemma 5 a
candidate set only shrinks during phase two, so the top is the group the
smallest-id scan over the whole set would pick, at the cost of a heap pop per
discarded candidate instead of a sort per iteration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.state import AlgorithmState
from repro.errors import AlgorithmInvariantError

__all__ = ["PhaseTwoReport", "run_phase_two"]


@dataclass(frozen=True)
class PhaseTwoReport:
    """Outcome of phase two."""

    #: Number of tuples moved to the residue set during this phase.
    moved: int
    #: Number of iterations (candidate selections) executed.
    iterations: int
    #: Whether ``R`` became l-eligible during this phase.
    satisfied: bool
    #: Candidates popped from the per-value heaps (dead or emptied groups).
    candidates_discarded: int
    #: Number of per-group states built during the phase.
    groups_materialized: int

    @property
    def counters(self) -> dict[str, int]:
        """The phase's exact work counts, as carried on its span."""
        return {
            "iterations": self.iterations,
            "candidates_discarded": self.candidates_discarded,
            "groups_materialized": self.groups_materialized,
            "moved": self.moved,
        }


def run_phase_two(state: AlgorithmState) -> PhaseTwoReport:
    """Grow ``R`` without raising ``h(R)`` until eligible or stuck."""
    l = state.l
    residue = state.residue
    materialized = state.materialized_count

    # The candidate heap of each sensitive value: ids of the groups holding
    # it.  Heaps are pruned lazily; once a value has no alive group left it
    # can never become alive again within phase two.
    groups_with_value = state.values_to_groups()

    heap: list[tuple[int, int]] = [
        (residue.count(value), value) for value in groups_with_value
    ]
    heapq.heapify(heap)
    exhausted: set[int] = set()

    moved = 0
    iterations = 0
    discarded = 0
    while heap and not state.residue_is_eligible():
        frequency, value = heapq.heappop(heap)
        if value in exhausted:
            continue
        if frequency != residue.count(value):
            # Stale entry: a fresher one was pushed when h(R, value) changed.
            continue

        candidates = groups_with_value[value]
        group_id, popped = _find_alive_group(state, candidates, value)
        discarded += popped
        if group_id is None:
            exhausted.add(value)
            continue

        iterations += 1
        group = state.group(group_id)
        touched: list[int] = []
        if group.is_fat(l):
            state.move_to_residue(group_id, value)
            moved += 1
            touched.append(value)
        else:
            # Thin and alive, hence non-conflicting (Section 5.3).
            pillars = sorted(group.pillars_view())
            if not residue.pillars_view().isdisjoint(pillars):
                raise AlgorithmInvariantError(
                    "phase two selected a thin group that conflicts with R"
                )
            for pillar in pillars:
                state.move_to_residue(group_id, pillar)
                moved += 1
            touched.extend(pillars)

        # Refresh heap entries for every value whose frequency in R changed,
        # and re-arm the picked value if it was not itself moved.
        for changed in touched:
            if changed in groups_with_value and changed not in exhausted:
                heapq.heappush(heap, (residue.count(changed), changed))
        if value not in touched:
            heapq.heappush(heap, (residue.count(value), value))

    return PhaseTwoReport(
        moved=moved,
        iterations=iterations,
        satisfied=state.residue_is_eligible(),
        candidates_discarded=discarded,
        groups_materialized=state.materialized_count - materialized,
    )


def _find_alive_group(
    state: AlgorithmState,
    candidates: list[int],
    value: int,
) -> tuple[int | None, int]:
    """An alive group holding ``value``, and how many candidates were popped.

    ``candidates`` is the value's min-heap of group ids.  Dead or emptied
    groups at its top are popped for good, which is safe during phase two:
    a group that died (thin and conflicting) can never come back to life
    because groups only lose tuples and the pillar set of ``R`` only grows
    while ``h(R)`` stays constant (Lemma 5).  The smallest alive id is
    returned, as a scan over the sorted candidate set would find it.
    """
    popped = 0
    while candidates:
        group_id = candidates[0]
        if state.group_count_of(group_id, value) == 0 or state.group_is_dead(group_id):
            heapq.heappop(candidates)
            popped += 1
            continue
        return group_id, popped
    return None, popped
