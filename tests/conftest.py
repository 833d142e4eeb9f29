"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.dataset.examples import hospital_microdata, phase_two_example
from repro.dataset.synthetic import CensusConfig, make_sal
from repro.dataset.table import Attribute, Schema, Table


def make_random_table(
    n: int,
    d: int = 2,
    qi_domain: int = 3,
    m: int = 4,
    seed: int = 0,
) -> Table:
    """A random categorical table (helper shared by many tests)."""
    rng = random.Random(seed)
    schema = Schema(
        qi=tuple(Attribute(f"Q{i}", tuple(range(qi_domain))) for i in range(d)),
        sensitive=Attribute("S", tuple(range(m))),
    )
    qi_rows = [tuple(rng.randrange(qi_domain) for _ in range(d)) for _ in range(n)]
    sa_values = [rng.randrange(m) for _ in range(n)]
    return Table(schema, qi_rows, sa_values)


def merged_with_empty_groups(table: Table, l: int, shard_count: int = 3):
    """A merged-shard table whose group form has groups with no rows.

    Each shard's TP output gets an unused group inserted at id 0 before the
    merge, so the merged ``rep_codes`` carry one row-less group per shard.
    """
    import numpy as np

    from repro.dataset.generalized import GeneralizedTable
    from repro.engine.registry import AlgorithmOutput, algorithm_registry
    from repro.engine.sharding import merge_shard_outputs, qi_prefix_shards

    runner = algorithm_registry.get("TP").runner
    shard_rows = qi_prefix_shards(table, shard_count, l)
    outputs = []
    for rows in shard_rows:
        shard = table.subset(rows)
        rep_codes, rep_star, group_of, _ = runner(shard, l).generalized.columnar_publish()
        gapped = GeneralizedTable.from_groups(
            shard,
            np.concatenate([np.zeros_like(rep_codes[:1]), rep_codes]),
            np.concatenate([np.ones_like(rep_star[:1]), rep_star]),
            group_of + 1,
        )
        outputs.append(AlgorithmOutput(gapped))
    return merge_shard_outputs(table, shard_rows, outputs, l)


@pytest.fixture(autouse=True)
def _isolated_workspace(tmp_path, monkeypatch):
    """Point the service workspace at a per-test directory.

    Keeps CLI/service tests from reading or writing the developer's real
    ``~/.cache/ldiversity`` run store and job ledger.
    """
    monkeypatch.setenv("REPRO_WORKSPACE", str(tmp_path / "workspace"))


@pytest.fixture
def hospital() -> Table:
    """The paper's Table 1."""
    return hospital_microdata()


@pytest.fixture
def phase2_table() -> Table:
    """The Section 5.3 worked example."""
    return phase_two_example()


@pytest.fixture(scope="session")
def small_census() -> Table:
    """A small synthetic SAL-like table shared across integration tests."""
    return make_sal(800, seed=3, config=CensusConfig.scaled(0.2))


@pytest.fixture
def random_table() -> Table:
    """A deterministic random table for generic behavioural tests."""
    return make_random_table(60, d=3, qi_domain=3, m=5, seed=11)
