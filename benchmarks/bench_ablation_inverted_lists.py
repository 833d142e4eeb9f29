"""Ablation: the Section 5.5 inverted-list buckets vs a naive recount.

DESIGN.md calls out the bucketed pillar maintenance as a key implementation
choice; this benchmark quantifies it.  One TP run of the per-tuple oracle on
a census projection is recorded as its sequence of ``add`` / ``remove_one`` /
``pillars_view`` calls; the sequence is then replayed on
:class:`~repro.core.groups.GroupState` and on the test-side
``NaiveGroupState``, and both replays must give the same answers (the data
structure is an optimization, not a behaviour change).
"""

from __future__ import annotations

import pytest

from benchmarks._config import BENCH_CONFIG
from repro.core.groups import GroupState
from repro.dataset.synthetic import CensusConfig, make_sal
from tests.tp_oracle import NaiveGroupState, run_tp

_L = 6


def _table():
    config = CensusConfig.scaled(BENCH_CONFIG.domain_scale)
    base = make_sal(BENCH_CONFIG.n, seed=BENCH_CONFIG.seed, config=config)
    return base.project(base.schema.qi_names[: BENCH_CONFIG.base_dimension])


def _record_tp_operations(table, l):
    """``(state count, [(state index, op, *args)])`` of one oracle TP run."""
    log: list[tuple] = []
    created: list[GroupState] = []

    class RecordingState(GroupState):
        __slots__ = ("_index",)

        def __init__(self) -> None:
            super().__init__()
            self._index = len(created)
            created.append(self)

        def add(self, value, row):
            log.append((self._index, "add", value, row))
            super().add(value, row)

        def remove_one(self, value):
            log.append((self._index, "remove_one", value))
            return super().remove_one(value)

        def pillars_view(self):
            log.append((self._index, "pillars_view"))
            return super().pillars_view()

    run_tp(table, l, state_factory=RecordingState)
    return len(created), log


def _replay(factory, state_count, log):
    """Replay a recorded sequence; returns every removed row and pillar set."""
    states = [factory() for _ in range(state_count)]
    answers: list = []
    for index, operation, *args in log:
        state = states[index]
        if operation == "add":
            state.add(*args)
        elif operation == "remove_one":
            answers.append(state.remove_one(*args))
        else:
            answers.append(frozenset(state.pillars_view()))
    return answers


@pytest.fixture(scope="module")
def recorded():
    return _record_tp_operations(_table(), _L)


@pytest.mark.parametrize(
    "factory", [GroupState, NaiveGroupState], ids=["inverted-lists", "naive-recount"]
)
def test_tp_group_state_ablation(benchmark, recorded, factory):
    state_count, log = recorded
    answers = benchmark.pedantic(
        lambda: _replay(factory, state_count, log), rounds=1, iterations=1
    )
    assert len(answers) == sum(1 for entry in log if entry[1] != "add")


def test_both_implementations_agree(recorded):
    state_count, log = recorded
    assert any(entry[1] == "remove_one" for entry in log)
    assert _replay(GroupState, state_count, log) == _replay(
        NaiveGroupState, state_count, log
    )
