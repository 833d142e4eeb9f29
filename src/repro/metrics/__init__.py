"""Information-loss and utility metrics.

* :mod:`repro.metrics.stars` — star counts and suppressed-tuple counts, the
  objectives of Problems 1 and 2;
* :mod:`repro.metrics.kl` — the KL-divergence utility metric of Section 6.2
  (Equation 2), applicable to suppression, single-dimensional and
  multi-dimensional generalizations alike;
* :mod:`repro.metrics.loss` — auxiliary information-loss measures used for
  the extension experiments (NCP/GCP, discernibility, group sizes).

Every metric is registered once in :mod:`repro.engine.metrics`; the
``metric_registry`` there is how plans, reports and the CLI evaluate them.
"""

from repro.metrics.kl import kl_divergence
from repro.metrics.loss import average_group_size, discernibility, gcp, ncp
from repro.metrics.stars import (
    star_count,
    star_count_by_attribute,
    suppressed_tuple_count,
    suppression_ratio,
)

__all__ = [
    "average_group_size",
    "discernibility",
    "gcp",
    "kl_divergence",
    "ncp",
    "star_count",
    "star_count_by_attribute",
    "suppressed_tuple_count",
    "suppression_ratio",
]
