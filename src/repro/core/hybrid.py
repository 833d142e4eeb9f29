"""The hybrid algorithm TP+ (Sections 5.6 and 6.1).

TP+ first runs the three-phase algorithm TP, then applies a heuristic
partitioning algorithm to the residue set ``R`` instead of publishing it as a
single fully-suppressed QI-group.  Because every refined group is l-eligible,
the result is still l-diverse, and because refinement can only remove stars
relative to plain TP, TP+ inherits the ``O(l * d)`` approximation guarantee
(Section 5.6).  In the paper's experiments TP+ dominates both TP and the
Hilbert baseline in star count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.eligibility import is_l_eligible
from repro.core.groups import GroupState
from repro.core.refiners import Refiner
from repro.core.state import StateFactory
from repro.core.three_phase import ThreePhaseStats, run_state
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.table import Table
from repro.errors import AlgorithmInvariantError
from repro.obs import trace

__all__ = ["HybridResult", "anonymize"]


@dataclass(frozen=True)
class HybridResult:
    """Outcome of the TP+ hybrid."""

    table: Table
    l: int
    partition: Partition
    generalized: GeneralizedTable
    #: Row indices of the TP residue set that was handed to the refiner.
    residue_rows: list[int]
    #: Number of QI-groups the refiner split the residue into.
    refined_group_count: int
    #: Statistics of the underlying TP run.
    tp_stats: ThreePhaseStats

    @property
    def star_count(self) -> int:
        return self.generalized.star_count()

    @property
    def suppressed_tuple_count(self) -> int:
        return self.generalized.suppressed_tuple_count()


def anonymize(
    table: Table,
    l: int,
    refiner: Refiner | None = None,
    state_factory: StateFactory = GroupState,
) -> HybridResult:
    """Compute an l-diverse suppression of ``table`` with TP+.

    Parameters
    ----------
    table:
        The microdata (must be l-eligible).
    l:
        The diversity parameter (``l >= 2``).
    refiner:
        Strategy used to split the TP residue into QI-groups.  Defaults to
        the Hilbert-curve refiner, matching the paper's TP+ (TP combined with
        the Hilbert heuristic of Ghinita et al.).
    state_factory:
        Group-state implementation forwarded to TP.
    """
    if refiner is None:
        from repro.baselines.hilbert import hilbert_refiner

        refiner = hilbert_refiner

    state, stats = run_state(table, l, state_factory=state_factory)
    retained = state.retained_group_arrays()
    residue = sorted(state.residue_rows())

    refined: list[list[int]] = []
    if residue:
        with trace.span("refine"):
            # Custom refiners may emit empty groups; drop them before the
            # trusted partition (which, unlike Partition(), adopts groups
            # unfiltered).
            refined = [list(group) for group in refiner(table, residue, l) if len(group) > 0]
            _validate_refinement(table, residue, refined, l)

    with trace.span("publish"):
        # Valid by construction (retained groups + refined residue cover all
        # rows); retained groups are zero-copy spans of the state's order.
        partition = Partition.trusted(retained + refined, len(table))
        generalized = GeneralizedTable.from_partition(table, partition)
    return HybridResult(
        table=table,
        l=l,
        partition=partition,
        generalized=generalized,
        residue_rows=residue,
        refined_group_count=len(refined),
        tp_stats=stats,
    )


def _validate_refinement(
    table: Table,
    residue: list[int],
    refined: list[list[int]],
    l: int,
) -> None:
    """Ensure the refiner returned an l-eligible partition of the residue."""
    covered = sorted(row for group in refined for row in group)
    if covered != sorted(residue):
        raise AlgorithmInvariantError(
            "refiner did not return a partition of the residue rows"
        )
    for group in refined:
        counts = Counter(table.sa_value(row) for row in group)
        if not is_l_eligible(counts, l):
            raise AlgorithmInvariantError(
                "refiner produced a QI-group that is not l-eligible"
            )
