"""The diversity a published table achieves, as an adversary sees it."""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataset.generalized import GeneralizedTable

__all__ = [
    "DiversityReport",
    "adversary_confidence",
    "diversity_report",
]


@dataclass(frozen=True)
class DiversityReport:
    """Per-group diversity statistics of a published table."""

    #: Number of QI-groups.
    group_count: int
    #: Smallest group size (the ``k`` for which the table is k-anonymous).
    min_group_size: int
    #: Largest within-group frequency of a single sensitive value, as a
    #: fraction of the group size (the best confidence an adversary who has
    #: located an individual's QI-group can achieve).
    max_confidence: float
    #: The largest ``l`` for which the table is l-diverse.
    achieved_l: int


def diversity_report(generalized: GeneralizedTable) -> DiversityReport:
    """Summarise the privacy level actually achieved by a published table."""
    sizes, heights = generalized.group_sizes_heights()
    if not sizes.size:
        return DiversityReport(group_count=0, min_group_size=0, max_confidence=0.0, achieved_l=0)
    return DiversityReport(
        group_count=int(sizes.size),
        min_group_size=int(sizes.min()),
        max_confidence=float((heights / sizes).max()),
        achieved_l=int((sizes // heights).min()),
    )


def adversary_confidence(generalized: GeneralizedTable) -> float:
    """Worst-case probability of inferring an individual's sensitive value.

    Equals ``1 / achieved_l`` rounded up to the actual worst group frequency;
    e.g. a 2-diverse table yields at most 0.5 (Section 1 of the paper).
    """
    return diversity_report(generalized).max_confidence
