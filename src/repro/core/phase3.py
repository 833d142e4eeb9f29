"""Phase three of the three-phase algorithm (Section 5.4).

Phase three is the "overhaul": it raises both ``|R|`` and ``h(R)``, but in a
controlled way so that ``|R|`` grows at least ``l`` times faster and the gap
``l * h(R) - |R|`` closes (Lemma 9).  Each round has two steps:

1. Using the greedy SET-COVER heuristic, select a subset of QI-groups whose
   *non*-conflicting pillars cover all current pillars of ``R``; remove one
   tuple from each pillar of every selected group.
2. Re-kill every group that became alive: fat groups shed tuples whose
   sensitive value is not a pillar of ``R``; thin non-conflicting groups shed
   one tuple per pillar.

The round repeats until ``R`` is l-eligible.  The algorithm terminates the
moment eligibility is reached, possibly mid-step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import AlgorithmState
from repro.errors import AlgorithmInvariantError

__all__ = ["PhaseThreeReport", "run_phase_three"]


@dataclass(frozen=True)
class PhaseThreeReport:
    """Outcome of phase three."""

    #: Number of rounds executed (Lemma 9 bounds this by ``h(R..)``).
    rounds: int
    #: Number of tuples moved to the residue set during this phase.
    moved: int


class _Progress:
    """Mutable move counter shared by the helpers of a phase-three run."""

    __slots__ = ("moved",)

    def __init__(self) -> None:
        self.moved = 0

    def record(self) -> None:
        self.moved += 1


def run_phase_three(state: AlgorithmState) -> PhaseThreeReport:
    """Run greedy-cover rounds until the residue set is l-eligible."""
    progress = _Progress()
    rounds = 0
    while not state.residue_is_eligible():
        rounds += 1
        moved_before = progress.moved
        _run_round(state, progress)
        if not state.residue_is_eligible() and progress.moved == moved_before:
            raise AlgorithmInvariantError(
                "phase three made no progress in a round; this contradicts "
                "Lemma 7 and indicates an implementation bug or an ineligible table"
            )
    return PhaseThreeReport(rounds=rounds, moved=progress.moved)


def _run_round(state: AlgorithmState, progress: _Progress) -> None:
    """One round of phase three.  Stops early when ``R`` becomes eligible."""
    # ----------------------------------------------------------- step one
    # "Remove one tuple from each pillar" is an atomic batch: interrupting it
    # half-way would leave the group ineligible, so eligibility of R is only
    # checked between batches (this is also how Lemma 6 / Theorem 3 account
    # for the final overshoot of at most l - 1 tuples).
    selected = _greedy_cover(state)
    for group_id in selected:
        for pillar in sorted(state.group_pillars_view(group_id)):
            state.move_to_residue(group_id, pillar)
            progress.record()
        if state.residue_is_eligible():
            return

    # ----------------------------------------------------------- step two
    # Removing tuples for one group can change the pillar set of R and wake
    # other groups up, so sweep until a full pass leaves every group dead.
    while True:
        progressed = False
        for group_id in range(state.group_count):
            moved_here = _kill_group(state, group_id, progress)
            if state.residue_is_eligible():
                return
            progressed = progressed or moved_here > 0
        if not progressed:
            return


def _greedy_cover(state: AlgorithmState) -> list[int]:
    """Greedy SET COVER over the pillars of ``R`` (step one of a round).

    ``C(Q)`` — the conflicting pillars of ``Q`` — plays the role of the
    *complement* of the set contributed by ``Q``: selecting ``Q`` covers the
    pillars of ``R`` that are **not** pillars of ``Q``.  Following the paper,
    we repeatedly pick the group minimising ``|C(Q) ∩ P|`` and shrink ``P``
    to that intersection until ``P`` is empty.  Lemma 7 guarantees progress.

    Each pick is one kernel pass over every group's pillars plus an argmin.
    ``np.argmin`` returns the first occurrence of the minimum, so ties go to
    the smallest group id.  Excluded groups (empty, or already selected) are
    masked with an overlap count above ``len(pending)``.
    """
    pending = state.residue.pillars()
    selected: list[int] = []
    excluded = state.group_sizes_array() == 0
    while pending:
        overlaps = state.pillar_overlap_counts(pending)
        overlaps[excluded] = len(pending) + 1
        best_group = int(np.argmin(overlaps))
        if int(overlaps[best_group]) >= len(pending):
            raise AlgorithmInvariantError(
                "greedy cover cannot make progress over the pillars of R; "
                "Lemma 7 rules this out for l-eligible microdata"
            )
        selected.append(best_group)
        excluded[best_group] = True
        pending = set(state.group_pillars_view(best_group)) & pending
    return selected


def _kill_group(state: AlgorithmState, group_id: int, progress: _Progress) -> int:
    """Step two of a round: shed tuples from one group until it is dead.

    Returns the number of tuples moved; stops immediately if ``R`` becomes
    l-eligible.
    """
    l = state.l
    moved = 0
    # All reads go through the state's lazy-fast queries so the sweep never
    # materializes groups it only inspects; the moves themselves materialize.
    while not state.group_is_dead(group_id):
        if state.group_is_fat(group_id):
            value = _cheapest_non_pillar_value(state, group_id)
            state.move_to_residue(group_id, value)
            progress.record()
            moved += 1
            if state.residue_is_eligible():
                return moved
        else:
            # Thin.  If it conflicted with R it would be dead and the loop
            # guard would have caught it, so it is non-conflicting: shed one
            # tuple from each pillar (an atomic batch — see _run_round; the
            # sorted() copy also shields the iteration from the moves below).
            for pillar in sorted(state.group_pillars_view(group_id)):
                state.move_to_residue(group_id, pillar)
                progress.record()
                moved += 1
            if state.residue_is_eligible():
                return moved
    return moved


def _cheapest_non_pillar_value(state: AlgorithmState, group_id: int) -> int:
    """A sensitive value of the group that is not a pillar of ``R``.

    Such a value always exists while the algorithm is running: the group is
    l-eligible and non-empty, hence holds at least ``l`` distinct sensitive
    values, while ``R`` (not yet l-eligible) has at most ``l - 1`` pillars.
    Among the candidates we pick the one least frequent in ``R`` so that the
    removal also narrows future gaps, breaking ties by sensitive code.
    """
    residue_pillars = state.residue.pillars_view()
    best: tuple[int, int] | None = None
    for value in state.group_values_iter(group_id):
        if value in residue_pillars:
            continue
        key = (state.residue.count(value), value)
        if best is None or key < best:
            best = key
    if best is None:
        raise AlgorithmInvariantError(
            "fat group has no sensitive value outside the pillars of R; "
            "this contradicts l-eligibility of the group"
        )
    return best[1]
