"""The three-phase algorithm ``TP`` (Section 5): driver and public API.

``TP`` solves *tuple minimization* (Problem 2) with approximation ratio ``l``
(Theorem 3); by Lemma 2 the resulting suppression is an ``(l * d)``
approximation for *star minimization* (Problem 1).  The three phases
successively introduce error:

* termination after phase one is **optimal** for tuple minimization
  (Corollary 1), hence a ``d``-approximation for stars;
* termination during phase two adds at most ``l - 1`` tuples (Corollary 3);
* phase three guarantees the multiplicative factor ``l`` (Theorem 3).

The public entry point is :func:`anonymize`, which returns both the
suppression-based generalized table and detailed statistics (phase reached,
tuples removed per phase, lower bounds) used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.phase1 import PhaseOneReport, run_phase_one
from repro.core.phase2 import PhaseTwoReport, run_phase_two
from repro.core.phase3 import PhaseThreeReport, run_phase_three
from repro.core.state import AlgorithmState
from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.table import Table
from repro.obs import trace

__all__ = ["ThreePhaseStats", "ThreePhaseResult", "anonymize", "run_state"]


@dataclass(frozen=True)
class ThreePhaseStats:
    """Execution statistics of a TP run."""

    l: int
    #: 1, 2 or 3: the phase in which the algorithm terminated.
    phase_reached: int
    #: Number of initial QI-groups ``s``.
    initial_group_count: int
    #: Tuples moved to the residue in each phase.
    phase1_moved: int
    phase2_moved: int
    phase3_moved: int
    #: Iterations of phase two and rounds of phase three.
    phase2_iterations: int
    phase3_rounds: int
    #: ``h(R.)`` at the end of phase one, driving the Corollary 2 lower bound.
    residue_height_after_phase1: int
    #: ``|R.|`` at the end of phase one.
    residue_size_after_phase1: int
    #: Final ``|R|``: the tuple-minimization objective value achieved.
    removed_tuples: int

    @property
    def tuple_lower_bound(self) -> int:
        """A lower bound on OPT for tuple minimization.

        Combines Corollary 1 (``OPT >= |R.|``) and Corollary 2
        (``OPT >= l * h(R.)``).
        """
        return max(self.residue_size_after_phase1, self.l * self.residue_height_after_phase1)

    @property
    def empirical_tuple_ratio(self) -> float:
        """``|R| / lower bound`` — an upper estimate of the achieved ratio.

        Returns 1.0 when nothing was removed (the bound and the objective are
        both zero).
        """
        if self.removed_tuples == 0:
            return 1.0
        bound = self.tuple_lower_bound
        return self.removed_tuples / bound if bound else float("inf")


@dataclass(frozen=True)
class ThreePhaseResult:
    """Full outcome of :func:`anonymize`."""

    table: Table
    l: int
    #: The partition defining the published generalization: every untouched
    #: QI-group plus (when non-empty) the residue set as one final QI-group.
    partition: Partition
    #: The suppression-based generalization (Definition 1) of ``partition``.
    generalized: GeneralizedTable
    #: Row indices of the suppressed tuples (the residue set ``R``).
    residue_rows: list[int]
    stats: ThreePhaseStats

    @property
    def star_count(self) -> int:
        """Number of stars in the published table (Problem 1 objective)."""
        return self.generalized.star_count()

    @property
    def suppressed_tuple_count(self) -> int:
        """Number of suppressed tuples (Problem 2 objective)."""
        return self.generalized.suppressed_tuple_count()


def run_state(table: Table, l: int) -> tuple[AlgorithmState, ThreePhaseStats]:
    """Run the three phases and return the raw algorithm state plus stats.

    This is the building block shared by :func:`anonymize` and the TP+ hybrid
    (:mod:`repro.core.hybrid`), which post-processes the residue set instead
    of publishing it as a single QI-group.
    """
    # Touch the table-level grouping before the state-init stage so its cost
    # is attributed to ``encode``; it is cached on the table, so the work is
    # never repeated inside AlgorithmState.
    table.grouping()
    with trace.span("state-init"):
        state = AlgorithmState(table, l)

    with trace.span("phase1") as span:
        phase1: PhaseOneReport = run_phase_one(state)
    if span is not None:
        span.attributes.update(phase1.counters)
    phase2: PhaseTwoReport | None = None
    phase3: PhaseThreeReport | None = None

    if phase1.satisfied:
        phase_reached = 1
    else:
        with trace.span("phase2") as span:
            phase2 = run_phase_two(state)
        if span is not None:
            span.attributes.update(phase2.counters)
        if phase2.satisfied:
            phase_reached = 2
        else:
            with trace.span("phase3"):
                phase3 = run_phase_three(state)
            phase_reached = 3

    stats = ThreePhaseStats(
        l=l,
        phase_reached=phase_reached,
        initial_group_count=state.group_count,
        phase1_moved=phase1.moved,
        phase2_moved=phase2.moved if phase2 else 0,
        phase3_moved=phase3.moved if phase3 else 0,
        phase2_iterations=phase2.iterations if phase2 else 0,
        phase3_rounds=phase3.rounds if phase3 else 0,
        residue_height_after_phase1=phase1.residue_height,
        residue_size_after_phase1=phase1.residue_size,
        removed_tuples=state.removed_tuple_count(),
    )
    return state, stats


def anonymize(table: Table, l: int) -> ThreePhaseResult:
    """Compute an l-diverse suppression of ``table`` with the TP algorithm.

    Parameters
    ----------
    table:
        The microdata.  Must be l-eligible (otherwise
        :class:`~repro.errors.IneligibleTableError` is raised, because no
        l-diverse generalization exists at all).
    l:
        The diversity parameter (``l >= 2``).

    Returns
    -------
    ThreePhaseResult
        The generalized table, the partition that produced it, the suppressed
        rows and per-phase statistics.
    """
    state, stats = run_state(table, l)
    with trace.span("publish"):
        # Untouched groups come back as zero-copy spans of the state's sort
        # order; Partition normalizes them to lists only if someone reads
        # the public ``groups`` property.
        groups = state.retained_group_arrays()
        residue = sorted(state.residue_rows())
        if residue:
            groups = groups + [residue]
        # Valid by construction: the retained groups and the residue partition
        # the row indices exactly, so skip the O(n) re-validation.
        partition = Partition.trusted(groups, len(table))
        generalized = GeneralizedTable.from_partition(table, partition)
    return ThreePhaseResult(
        table=table,
        l=l,
        partition=partition,
        generalized=generalized,
        residue_rows=residue,
        stats=stats,
    )
