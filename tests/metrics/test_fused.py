"""The fused one-pass metric sweep against the row-level and reference paths.

Satellite of the GroupingContext work: across every registered algorithm and
a representative PrivacySpec slice, the fused sweep must be *bit-equal* to
the row-level paths a table without group form takes (they share summation
orders by construction) and must agree with the pure-Python ``*_reference``
oracles — exactly for integer metrics, to float tolerance for the KL/NCP
oracles (which sum in a different order).  The chunk-sort path is forced via
``PARALLEL_THRESHOLD = 1`` to prove the parallel sort does not perturb any
downstream metric.
"""

from __future__ import annotations

import math

import pytest

from repro.core import kernels
from repro.dataset.generalized import GeneralizedTable
from repro.engine.core import run_with_spec
from repro.engine.registry import algorithm_registry
from repro.metrics import FUSED_METRIC_NAMES, fused_metrics
from repro.metrics.kl import kl_divergence_reference
from repro.metrics.loss import discernibility_reference, ncp_reference
from repro.privacy.spec import (
    EntropyLDiversity,
    FrequencyLDiversity,
    KAnonymity,
    RecursiveCLDiversity,
)

ALGORITHMS = tuple(sorted(algorithm_registry.names()))
SPECS = (
    FrequencyLDiversity(l=2),
    EntropyLDiversity(l=2),
    RecursiveCLDiversity(c=2.0, l=2),
    KAnonymity(k=2),
)


def _published(table, algorithm, spec):
    runner = algorithm_registry.get(algorithm).runner
    return run_with_spec(runner, table, spec).generalized


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.describe())
class TestFusedAcrossAlgorithmAndSpec:
    def test_fused_bit_equals_row_level_paths(self, small_census, algorithm, spec):
        generalized = _published(small_census, algorithm, spec)
        fused = fused_metrics(small_census, generalized)
        # The same cells rebuilt without the per-group caches take the
        # row-level paths (width-matrix NCP, row star mask).
        rows = GeneralizedTable(
            generalized.schema,
            generalized.cell_rows,
            generalized.sa_values,
            generalized.group_ids,
        )
        assert rows.group_star_flags() is None
        assert set(fused) == set(FUSED_METRIC_NAMES)
        assert fused == fused_metrics(small_census, rows)  # bit-equal, floats included

    def test_fused_matches_reference_oracles(self, small_census, algorithm, spec):
        generalized = _published(small_census, algorithm, spec)
        fused = fused_metrics(small_census, generalized)
        assert fused["stars"] == generalized.star_count_reference()
        assert fused["suppressed"] == generalized.suppressed_tuple_count_reference()
        assert fused["discernibility"] == discernibility_reference(generalized)
        assert math.isclose(
            fused["ncp"], ncp_reference(generalized), rel_tol=1e-9, abs_tol=1e-12
        )
        assert math.isclose(
            fused["kl"],
            kl_divergence_reference(small_census, generalized),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        groups = generalized.groups()
        assert fused["average_group_size"] == len(generalized) / len(groups)
        cells = len(generalized) * generalized.dimension
        assert fused["gcp"] == fused["ncp"] / cells
        assert fused["suppression_ratio"] == fused["stars"] / cells


class TestChunkSortPath:
    def test_forced_chunk_sort_leaves_every_metric_bit_identical(self, small_census):
        spec = FrequencyLDiversity(l=2)
        serial_table = small_census
        serial = fused_metrics(
            serial_table, _published(serial_table, "TP+", spec)
        )

        from repro.dataset.table import Table

        chunked_table = Table(
            small_census.schema, small_census.qi_rows, small_census.sa_values
        )
        saved_threshold = kernels.PARALLEL_THRESHOLD
        saved_chunks = kernels.MIN_SORT_CHUNKS
        kernels.PARALLEL_THRESHOLD = 1
        kernels.MIN_SORT_CHUNKS = 3
        try:
            chunked = fused_metrics(
                chunked_table, _published(chunked_table, "TP+", spec)
            )
        finally:
            kernels.PARALLEL_THRESHOLD = saved_threshold
            kernels.MIN_SORT_CHUNKS = saved_chunks
        assert chunked == serial  # bit-equal across the parallel sort
