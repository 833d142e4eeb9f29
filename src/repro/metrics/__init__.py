"""Information-loss and utility metrics.

* :mod:`repro.metrics.stars` — star counts and suppressed-tuple counts, the
  objectives of Problems 1 and 2;
* :mod:`repro.metrics.kl` — the KL-divergence utility metric of Section 6.2
  (Equation 2), applicable to suppression, single-dimensional and
  multi-dimensional generalizations alike;
* :mod:`repro.metrics.loss` — auxiliary information-loss measures used for
  the extension experiments (NCP/GCP, discernibility, group sizes);
* :mod:`repro.metrics.fused` — the fused one-pass sweep emitting the whole
  standard metric set from the shared grouping structure.
"""

from repro.metrics.fused import FUSED_METRIC_NAMES, fused_metrics
from repro.metrics.kl import kl_divergence
from repro.metrics.loss import average_group_size, discernibility, gcp, ncp
from repro.metrics.stars import (
    star_count,
    star_count_by_attribute,
    suppressed_tuple_count,
    suppression_ratio,
)

__all__ = [
    "FUSED_METRIC_NAMES",
    "average_group_size",
    "discernibility",
    "fused_metrics",
    "gcp",
    "kl_divergence",
    "ncp",
    "star_count",
    "star_count_by_attribute",
    "suppressed_tuple_count",
    "suppression_ratio",
]
