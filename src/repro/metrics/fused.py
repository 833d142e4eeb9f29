"""The fused one-pass metrics sweep over the shared grouping structure.

PR 7's profiling showed the metrics stage re-deriving the same grouped view
of the published table once per metric: KL ran its own full-table
``np.unique``, discernibility another, NCP a row-level width reduction, and
the verify pass filled a Python ``Counter`` per QI-group.  With the shared
:class:`~repro.core.grouping.GroupingContext` on the source table and the
per-group caches on the :class:`~repro.dataset.generalized.GeneralizedTable`
(sizes, star flags, sparse per-(group, SA) counts), every registered metric
now reads the same boundaries — :func:`fused_metrics` emits the whole
standard set from that one grouped sweep.

Values are bit-equal to the per-metric ``*_reference`` oracles for
integer metrics and, for float metrics, the fused reductions sum in the
same order as the row-level ones (see the per-metric docstrings).
"""

from __future__ import annotations

from repro.dataset.generalized import GeneralizedTable
from repro.dataset.table import Table
from repro.metrics.kl import kl_divergence
from repro.metrics.loss import average_group_size, discernibility, gcp, ncp
from repro.metrics.stars import (
    star_count,
    suppressed_tuple_count,
    suppression_ratio,
)

__all__ = ["FUSED_METRIC_NAMES", "fused_metrics"]

#: Registry names the fused sweep can emit, keyed exactly as
#: :mod:`repro.engine.metrics` registers them.
FUSED_METRIC_NAMES = (
    "stars",
    "suppressed",
    "suppression_ratio",
    "ncp",
    "gcp",
    "discernibility",
    "average_group_size",
    "kl",
)


def fused_metrics(
    table: Table, generalized: GeneralizedTable
) -> dict[str, float | int]:
    """Every standard metric from one sweep over the shared grouped caches.

    The first read materializes each shared intermediate exactly once — the
    grouping context on ``table`` (KL's distinct points), the group-size
    bincount (discernibility, average group size), the per-group star flags
    (stars, suppressed, NCP) — and every subsequent metric reuses it, so the
    whole dict costs one grouped pass instead of a full-table pass per
    metric.
    """
    stars = star_count(generalized)
    return {
        "stars": stars,
        "suppressed": suppressed_tuple_count(generalized),
        "suppression_ratio": suppression_ratio(generalized),
        "ncp": ncp(generalized),
        "gcp": gcp(generalized),
        "discernibility": discernibility(generalized),
        "average_group_size": average_group_size(generalized),
        "kl": kl_divergence(table, generalized),
    }

