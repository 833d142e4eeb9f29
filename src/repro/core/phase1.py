"""Phase one of the three-phase algorithm (Section 5.2).

For each QI-group, repeatedly remove one tuple from a pillar (a most frequent
sensitive value) until the group is l-eligible.  The paper observes that the
end result is independent of tie-breaking: a group only becomes eligible once
every pillar has lost a tuple, so the multiset of removals is unique.  We
nevertheless break ties deterministically (smallest sensitive code) so that
row-level output is reproducible.

If, at the end of the phase, the residue set ``R`` is itself l-eligible, the
whole algorithm stops and the solution is optimal (Corollary 1).

Section 5.5 makes the shave closed-form per group, and the phase runs as one
array pass over the run encoding: every group's stopping height comes from
one vectorized binary search, the kept run lengths are ``min(c_v, stop)``,
and the shaved rows reach ``R`` in one gather.  No group is materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.state import AlgorithmState

__all__ = ["PhaseOneReport", "run_phase_one"]


@dataclass(frozen=True)
class PhaseOneReport:
    """Outcome of phase one."""

    #: Number of tuples moved to the residue set during this phase.
    moved: int
    #: ``h(R.)``: pillar height of the residue at the end of phase one.  This
    #: value drives the lower bound ``OPT >= l * h(R.)`` of Corollary 2.
    residue_height: int
    #: ``|R.|``: size of the residue at the end of phase one.
    residue_size: int
    #: Whether inequality (1) ``|R| >= l * h(R)`` already holds, i.e. the
    #: algorithm terminates here with an optimal solution.
    satisfied: bool
    #: Number of groups that lost at least one tuple.
    groups_shaved: int
    #: Number of per-group states built during the phase (0: one array pass).
    groups_materialized: int

    @property
    def counters(self) -> dict[str, int]:
        """The phase's exact work counts, as carried on its span."""
        return {
            "groups_shaved": self.groups_shaved,
            "groups_materialized": self.groups_materialized,
            "moved": self.moved,
        }


def run_phase_one(state: AlgorithmState) -> PhaseOneReport:
    """Make every QI-group l-eligible by shaving its pillars.

    Every ineligible group is shaved to its closed-form stopping height in
    one array pass
    (:meth:`~repro.core.state.AlgorithmState.shave_ineligible_groups`) — the
    paper's observation that the removal multiset is tie-break-independent
    is what licenses computing it directly.  The one-removal-at-a-time loop
    the shave is proven against lives in the test-side per-tuple oracle.
    """
    materialized = state.materialized_count
    groups_shaved, moved = state.shave_ineligible_groups()
    return PhaseOneReport(
        moved=moved,
        residue_height=state.residue.height,
        residue_size=state.residue.size,
        satisfied=state.residue_is_eligible(),
        groups_shaved=groups_shaved,
        groups_materialized=state.materialized_count - materialized,
    )
