"""Row-at-a-time oracles of the SA-aware principles surveyed in Section 2.

Each checker answers one :mod:`repro.privacy.spec` class's
``check_generalized`` from ``Counter`` histograms over the ``groups()`` row
lists, sharing no code with the spec (``tests/privacy/test_spec.py``
compares them; ``scripts/privacy_smoke.py`` audits the engine's output with
them):

* :func:`satisfies_entropy_l_diversity` and
  :func:`satisfies_recursive_cl_diversity` — the two stricter
  instantiations of "well-represented" from Machanavajjhala et al. [31]
  (``EntropyLDiversity``, ``RecursiveCLDiversity``);
* :func:`satisfies_alpha_k_anonymity` — Wong et al. [46] (``AlphaKAnonymity``);
* :func:`satisfies_t_closeness` and :func:`max_t_closeness_distance` —
  Li et al. [29], the variational-distance instantiation for categorical
  sensitive attributes (``TCloseness``).
"""

from __future__ import annotations

import math
from collections import Counter

from repro.dataset.generalized import GeneralizedTable

__all__ = [
    "satisfies_entropy_l_diversity",
    "satisfies_recursive_cl_diversity",
    "satisfies_alpha_k_anonymity",
    "satisfies_t_closeness",
    "max_t_closeness_distance",
]

#: Floating-point slack applied to every boundary comparison.  Equal to
#: ``repro.privacy.spec.TOLERANCE`` (``tests/privacy/test_spec.py`` checks),
#: so the specs and these checkers never disagree on boundary histograms.
TOLERANCE = 1e-12


def _group_histograms(generalized: GeneralizedTable) -> list[Counter[int]]:
    return [
        Counter(generalized.sa_value(row) for row in rows)
        for rows in generalized.groups().values()
    ]


def satisfies_entropy_l_diversity(generalized: GeneralizedTable, l: float) -> bool:
    """Entropy l-diversity: every group's SA entropy is at least ``log(l)``."""
    if l <= 0:
        raise ValueError(f"l must be positive, got {l}")
    threshold = math.log(l)
    for histogram in _group_histograms(generalized):
        total = sum(histogram.values())
        entropy = -sum(
            (count / total) * math.log(count / total) for count in histogram.values()
        )
        if entropy + TOLERANCE < threshold:
            return False
    return True


def satisfies_recursive_cl_diversity(
    generalized: GeneralizedTable, c: float, l: int
) -> bool:
    """Recursive (c, l)-diversity: ``r_1 < c * (r_l + r_{l+1} + ... + r_m)``.

    ``r_i`` denotes the i-th largest SA frequency within a group.  Groups with
    fewer than ``l`` distinct sensitive values fail by definition.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    for histogram in _group_histograms(generalized):
        frequencies = sorted(histogram.values(), reverse=True)
        if len(frequencies) < l:
            return False
        tail = sum(frequencies[l - 1:])
        if frequencies[0] >= c * tail:
            return False
    return True


def satisfies_alpha_k_anonymity(
    generalized: GeneralizedTable, alpha: float, k: int
) -> bool:
    """(alpha, k)-anonymity: groups of size >= k with every SA frequency <= alpha."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for histogram in _group_histograms(generalized):
        total = sum(histogram.values())
        if total < k:
            return False
        if max(histogram.values()) > alpha * total + TOLERANCE:
            return False
    return True


def max_t_closeness_distance(generalized: GeneralizedTable) -> float:
    """The largest variational distance between a group's SA distribution and the table's.

    For categorical sensitive attributes the Earth Mover's Distance with the
    uniform ground metric reduces to the total variation distance
    ``0.5 * sum_v |P_group(v) - P_table(v)|``.
    """
    overall = Counter(generalized.sa_values)
    n = len(generalized)
    if n == 0:
        return 0.0
    worst = 0.0
    for histogram in _group_histograms(generalized):
        total = sum(histogram.values())
        distance = 0.5 * sum(
            abs(histogram.get(value, 0) / total - overall[value] / n) for value in overall
        )
        worst = max(worst, distance)
    return worst


def satisfies_t_closeness(generalized: GeneralizedTable, t: float) -> bool:
    """t-closeness: no group's SA distribution deviates from the table's by more than ``t``."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return max_t_closeness_distance(generalized) <= t + TOLERANCE
