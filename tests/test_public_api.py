"""Tests of the package's public surface."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_quickstart_flow(self):
        table = repro.datasets.hospital_microdata()
        result = repro.anonymize(table, l=2)
        assert isinstance(result, repro.ThreePhaseResult)
        assert result.generalized.is_l_diverse(2)

    def test_star_sentinel_exported(self):
        assert repr(repro.STAR) == "*"


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.eligibility",
            "repro.core.groups",
            "repro.core.state",
            "repro.core.phase1",
            "repro.core.phase2",
            "repro.core.phase3",
            "repro.core.three_phase",
            "repro.core.hybrid",
            "repro.core.matching",
            "repro.core.exact",
            "repro.core.bounds",
            "repro.core.refiners",
            "repro.core.preprocess",
            "repro.dataset",
            "repro.dataset.table",
            "repro.dataset.generalized",
            "repro.dataset.examples",
            "repro.dataset.synthetic",
            "repro.dataset.projections",
            "repro.baselines",
            "repro.baselines.hilbert",
            "repro.baselines.hilbert.curve",
            "repro.baselines.hilbert.anonymizer",
            "repro.baselines.hierarchy",
            "repro.baselines.tds",
            "repro.baselines.mondrian",
            "repro.metrics",
            "repro.metrics.stars",
            "repro.metrics.kl",
            "repro.metrics.loss",
            "repro.privacy",
            "repro.privacy.checks",
            "repro.privacy.attack",
            "repro.privacy.spec",
            "repro.hardness",
            "repro.hardness.three_dm",
            "repro.hardness.reduction",
            "repro.hardness.verify",
            "repro.hardness.kdm",
            "repro.experiments",
            "repro.experiments.config",
            "repro.experiments.harness",
            "repro.experiments.figures",
            "repro.engine",
            "repro.engine.registry",
            "repro.engine.cache",
            "repro.engine.core",
            "repro.engine.sources",
            "repro.engine.sinks",
            "repro.engine.sharding",
            "repro.service",
            "repro.service.store",
            "repro.service.planner",
            "repro.service.streaming",
            "repro.service.jobs",
            "repro.service.workspace",
            "repro.cli",
            "repro.errors",
        ],
    )
    def test_module_imports_and_has_docstring(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} is missing a module docstring"

    @pytest.mark.parametrize(
        "module",
        ["repro.core", "repro.dataset", "repro.baselines", "repro.metrics",
         "repro.privacy", "repro.hardness", "repro.experiments", "repro.engine",
         "repro.service"],
    )
    def test_subpackage_all_resolves(self, module):
        imported = importlib.import_module(module)
        for name in getattr(imported, "__all__", []):
            assert hasattr(imported, name), f"{module}.{name} missing"
