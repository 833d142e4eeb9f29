"""Row-at-a-time oracles of the group-level array paths.

Each function walks rows through plain ``Counter`` histograms, sharing no
code with the production path it checks:

* :func:`is_l_diverse_reference` and :func:`is_k_anonymous_reference` answer
  :meth:`GeneralizedTable.is_l_diverse` / :meth:`~GeneralizedTable.is_k_anonymous`
  from the ``groups()`` row lists, over dense, gapped and negative explicit
  group ids (checked in ``tests/dataset/test_generalized.py``);
* :func:`scan_reference` is streaming pass one
  (:func:`repro.service.streaming._scan`) one tuple at a time (checked in
  ``tests/service/test_scale.py``).
"""

from __future__ import annotations

from collections import Counter

from repro.dataset.generalized import GeneralizedTable
from repro.engine import CsvSource


def is_l_diverse_reference(generalized: GeneralizedTable, l: int) -> bool:
    """Whether every QI-group's tallest SA count times ``l`` fits its size."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    sa_values = generalized.sa_values
    for rows in generalized.groups().values():
        counts = Counter(sa_values[index] for index in rows)
        if max(counts.values()) * l > len(rows):
            return False
    return True


def is_k_anonymous_reference(generalized: GeneralizedTable, k: int) -> bool:
    """Whether every QI-group has at least ``k`` rows."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return all(len(rows) >= k for rows in generalized.groups().values())


def scan_reference(source: CsvSource, chunk_rows: int) -> tuple[dict[tuple, Counter], int]:
    """Per-QI-key SA histograms and the row count, one tuple at a time."""
    key_histograms: dict[tuple, Counter] = {}
    n = 0
    for chunk in source.iter_chunks(chunk_rows):
        sa_values = chunk.sa_values
        for key, rows in chunk.group_by_qi().items():
            histogram = key_histograms.setdefault(key, Counter())
            for row in rows:
                histogram[sa_values[row]] += 1
        n += len(chunk)
    return key_histograms, n
