"""The per-layer gate's logic on hand-built span trees (``scripts/layer_gate.py``).

The gate itself runs in CI at 10^5-10^6 rows; these tests pin what it
computes from a tree (self time per stage) and how it judges the result
against budgets, without running an algorithm.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.trace import Span

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "layer_gate.py"
_SPEC = importlib.util.spec_from_file_location("layer_gate", _SCRIPT)
layer_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_gate)


def _span(name: str, start: float, seconds: float, *children: Span) -> Span:
    return Span(name, start=start, seconds=seconds, children=list(children))


def _tree() -> Span:
    """run [0, 10): anonymize [1, 8) holding two shards and a merge."""
    return _span(
        "run", 0.0, 10.0,
        _span(
            "anonymize", 1.0, 7.0,
            _span("shard", 1.0, 2.0, _span("phase1", 1.5, 1.0)),
            _span("shard", 3.0, 3.0, _span("phase1", 3.0, 0.5)),
            _span("merge", 6.5, 1.0),
        ),
        _span("verify", 8.0, 1.5),
    )


class TestSelfSeconds:
    def test_self_time_is_the_span_minus_its_children(self):
        assert layer_gate.self_seconds(_tree()) == pytest.approx(10.0 - 7.0 - 1.5)
        assert layer_gate.self_seconds(_span("leaf", 0.0, 2.5)) == 2.5

    def test_stages_are_paths_and_repeated_paths_are_summed(self):
        stages = layer_gate.stage_seconds(_tree())
        assert stages == pytest.approx({
            "run": 1.5,
            "run/anonymize": 7.0 - 2.0 - 3.0 - 1.0,
            "run/anonymize/shard": (2.0 - 1.0) + (3.0 - 0.5),
            "run/anonymize/shard/phase1": 1.5,
            "run/anonymize/merge": 1.0,
            "run/verify": 1.5,
        })


class TestCheck:
    MEASURED = {"op": {"run": 0.1, "run/phase1": 1.0, "run/phase2": 2.0}}
    BUDGETS = {
        "op": {
            "run": {"budget": 0.2},
            "run/phase1": {"budget": 1.5},
            "run/phase2": {"budget": 2.5},
        }
    }

    def test_within_budget_passes(self):
        assert layer_gate.check(self.MEASURED, self.BUDGETS) == []

    def test_an_over_budget_stage_is_named_and_only_it(self):
        measured = {"op": {**self.MEASURED["op"], "run/phase2": 3.0}}
        assert layer_gate.check(measured, self.BUDGETS) == [
            "op run/phase2: 3.0000s over its 2.5000s budget"
        ]

    def test_a_budgeted_stage_missing_from_the_run_fails(self):
        measured = {"op": {"run": 0.1, "run/phase1": 1.0}}
        assert layer_gate.check(measured, self.BUDGETS) == [
            "op run/phase2: budgeted but missing from the run"
        ]

    def test_a_run_stage_without_a_budget_fails(self):
        measured = {"op": {**self.MEASURED["op"], "run/phase3": 0.01}}
        assert layer_gate.check(measured, self.BUDGETS) == [
            "op run/phase3: 0.0100s has no budget"
        ]

    def test_a_missing_or_unbudgeted_op_fails_on_every_stage(self):
        failures = layer_gate.check({}, self.BUDGETS)
        assert len(failures) == 3
        assert all("missing from the run" in failure for failure in failures)
        failures = layer_gate.check(self.MEASURED, {})
        assert len(failures) == 3
        assert all("has no budget" in failure for failure in failures)


def _counted(name: str, start: float, seconds: float, **counters) -> Span:
    return Span(name, start=start, seconds=seconds, attributes=counters)


class TestCounters:
    def test_counters_are_read_from_phase_spans_and_summed_per_path(self):
        tree = _span(
            "run", 0.0, 10.0,
            _span(
                "anonymize", 1.0, 7.0,
                _span("shard", 1.0, 2.0, _counted("phase1", 1.5, 1.0, moved=3, groups_shaved=1)),
                _span("shard", 3.0, 3.0, _counted("phase1", 3.0, 0.5, moved=4, groups_shaved=2)),
                _counted("merge", 6.5, 1.0, rows=9),
            ),
        )
        tree.children[0].children[0].attributes["index"] = 0
        tree.children[0].children[0].children[0].attributes["fanout"] = True
        assert layer_gate.stage_counters(tree) == {
            "run/anonymize/shard/phase1": {"moved": 7, "groups_shaved": 3},
        }

    RECORDED = {"op": {"run/phase2": {"iterations": 5, "moved": 9}}}

    def test_equal_counters_pass(self):
        assert layer_gate.check_counters(self.RECORDED, self.RECORDED) == []

    def test_a_counter_mismatch_names_op_stage_and_both_values(self):
        measured = {"op": {"run/phase2": {"iterations": 5, "moved": 12}}}
        assert layer_gate.check_counters(measured, self.RECORDED) == [
            "op run/phase2 moved: counted 12, recorded 9"
        ]

    def test_a_missing_or_new_counter_fails(self):
        measured = {"op": {"run/phase2": {"iterations": 5}, "run/phase3": {"moved": 1}}}
        assert layer_gate.check_counters(measured, self.RECORDED) == [
            "op run/phase2 moved: counted None, recorded 9",
            "op run/phase3 moved: counted 1, recorded None",
        ]


class TestRecord:
    PREVIOUS = {"op": {"run/phase1": {"seconds": 0.1, "budget": 0.21}}}

    def test_a_budget_only_tightens(self):
        looser = layer_gate.record({"op": {"run/phase1": 0.5}}, self.PREVIOUS)
        assert looser["op"]["run/phase1"] == self.PREVIOUS["op"]["run/phase1"]
        tighter = layer_gate.record({"op": {"run/phase1": 0.01}}, self.PREVIOUS)
        assert tighter["op"]["run/phase1"]["budget"] == pytest.approx(1.6 * 0.01 + 0.05)


def test_the_committed_budgets_cover_every_op():
    recorded = json.loads(layer_gate.BUDGETS.read_text())
    budgets = recorded["ops"]
    assert set(budgets) == set(layer_gate.OPS)
    for stages in budgets.values():
        assert all(limit["budget"] > limit["seconds"] >= 0 for limit in stages.values())
    assert set(recorded["counters"]) == set(layer_gate.OPS)
    for op, stages in recorded["counters"].items():
        assert any(stage.endswith("/phase1") for stage in stages), op
