"""Every registered metric on both table forms and against its oracle.

Across every registered algorithm and a representative PrivacySpec slice,
each metric of ``metric_registry`` must be *bit-equal* between the group
form a suppression table carries and the explicit-cells rebuild of the same
table (they share summation orders by construction), and must agree with
the pure-Python ``*_reference`` oracles of ``tests/metric_oracles.py`` —
exactly for integer metrics, to float tolerance for the KL/NCP oracles
(which sum in a different order).
"""

from __future__ import annotations

import math

import pytest

from repro.dataset.generalized import GeneralizedTable
from repro.engine import metric_registry
from repro.engine.core import run_with_spec
from repro.engine.registry import algorithm_registry
from repro.privacy.spec import (
    EntropyLDiversity,
    FrequencyLDiversity,
    KAnonymity,
    RecursiveCLDiversity,
)
from tests.conftest import merged_with_empty_groups
from tests.metric_oracles import (
    discernibility_reference,
    kl_divergence_reference,
    ncp_reference,
    star_count_reference,
    suppressed_tuple_count_reference,
)

ALGORITHMS = tuple(sorted(algorithm_registry.names()))
SPECS = (
    FrequencyLDiversity(l=2),
    EntropyLDiversity(l=2),
    RecursiveCLDiversity(c=2.0, l=2),
    KAnonymity(k=2),
)
STANDARD_METRICS = {
    "stars",
    "suppressed",
    "suppression_ratio",
    "ncp",
    "gcp",
    "discernibility",
    "average_group_size",
    "kl",
}


def _cells(generalized) -> int:
    return len(generalized) * generalized.dimension


#: Per metric: the independent oracle and the absolute tolerance of a
#: float comparison (``None``: must match exactly).
ORACLES = {
    "stars": (lambda table, g: star_count_reference(g), None),
    "suppressed": (lambda table, g: suppressed_tuple_count_reference(g), None),
    "suppression_ratio": (
        lambda table, g: star_count_reference(g) / _cells(g),
        None,
    ),
    "ncp": (lambda table, g: ncp_reference(g), 1e-12),
    "gcp": (lambda table, g: ncp_reference(g) / _cells(g), 1e-12),
    "discernibility": (lambda table, g: discernibility_reference(g), None),
    "average_group_size": (lambda table, g: len(g) / len(g.groups()), None),
    "kl": (kl_divergence_reference, 1e-9),
}


def _published(table, algorithm, spec):
    runner = algorithm_registry.get(algorithm).runner
    return run_with_spec(runner, table, spec).generalized


def _all_metrics(table, generalized) -> dict[str, float | int]:
    return {
        name: metric_registry.compute(name, table, generalized)
        for name in metric_registry.names()
    }


def _explicit_cells(generalized) -> GeneralizedTable:
    """The same cells rebuilt without the per-group caches, which takes the
    row-level paths (width-matrix NCP, row star mask, per-row KL combos)."""
    rows = GeneralizedTable(
        generalized.schema,
        generalized.cell_rows,
        generalized.sa_values,
        generalized.group_ids,
    )
    assert rows.group_star_flags() is None
    return rows


def _assert_matches_oracles(table, generalized, values) -> None:
    for name, value in values.items():
        oracle, abs_tol = ORACLES[name]
        expected = oracle(table, generalized)
        if abs_tol is None:
            assert value == expected, name
        else:
            assert math.isclose(value, expected, rel_tol=1e-9, abs_tol=abs_tol), name
    cells = _cells(generalized)
    assert values["gcp"] == values["ncp"] / cells
    assert values["suppression_ratio"] == values["stars"] / cells


def test_every_registered_metric_has_an_oracle():
    assert set(metric_registry.names()) >= STANDARD_METRICS
    assert set(metric_registry.names()) == set(ORACLES)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.describe())
class TestRegistryAcrossAlgorithmAndSpec:
    def test_group_form_bit_equals_row_level_paths(self, small_census, algorithm, spec):
        generalized = _published(small_census, algorithm, spec)
        values = _all_metrics(small_census, generalized)
        if generalized.columnar_publish() is not None:
            # No registered metric builds the per-row cell tuples.
            assert generalized._cells_rows is None
        rows = _explicit_cells(generalized)
        assert values == _all_metrics(small_census, rows)  # bit-equal, floats included

    def test_metrics_match_reference_oracles(self, small_census, algorithm, spec):
        generalized = _published(small_census, algorithm, spec)
        values = _all_metrics(small_census, generalized)
        _assert_matches_oracles(small_census, generalized, values)


class TestMergedShardsWithEmptyGroups:
    def test_metrics_on_row_less_groups(self, small_census):
        generalized = merged_with_empty_groups(small_census, 3)
        rep_codes = generalized.columnar_publish()[0]
        assert int((generalized.group_sizes_array() > 0).sum()) < len(rep_codes)
        values = _all_metrics(small_census, generalized)
        assert generalized._cells_rows is None
        assert values == _all_metrics(small_census, _explicit_cells(generalized))
        _assert_matches_oracles(small_census, generalized, values)
