"""Ablation: the Section 5.5 inverted-list buckets vs a naive recount.

Section 5.5 of the paper presents the bucketed pillar maintenance (inverted
lists) as a key implementation choice; this benchmark quantifies it.  A TP run of the per-tuple oracle is
recorded as its sequence of ``add`` / ``remove_one`` / ``pillars_view``
calls; the sequence is then replayed on
:class:`~repro.core.groups.GroupState` and on the test-side
``NaiveGroupState``, and both replays must give the same answers (the data
structure is an optimization, not a behaviour change).

The buckets pay off in phases two and three, where pillars are read after
every move; a run that ends in phase one is almost all ``add`` calls.  So
the recordings are runs that reach those phases: the two-QI projection of
the census table at l = 10 (phase two) and the Section 5.4 example at l = 4
(phase three).

A third recording is the production TP run (``AlgorithmState`` and the
phase modules) at l = 10 on the 10^6-row bench table
(``CensusConfig.scaled(0.24)``, seed 7), which reaches phase two.  There the
state builds a ``GroupState`` only for a group phase two touches, and fills
it and the residue in bulk; the recording logs that content as ``add``
calls, then every ``add``, ``remove_one`` and ``pillars_view`` call the
phases make.
"""

from __future__ import annotations

import pytest

from benchmarks._config import BENCH_CONFIG
from repro.core import state as state_module
from repro.core.groups import GroupState
from repro.core.state import AlgorithmState
from repro.core.three_phase import run_state
from repro.dataset.examples import phase_three_example
from repro.dataset.synthetic import CensusConfig, make_sal
from tests.tp_oracle import NaiveGroupState, run_tp


def _census_projection():
    config = CensusConfig.scaled(BENCH_CONFIG.domain_scale)
    base = make_sal(BENCH_CONFIG.n, seed=BENCH_CONFIG.seed, config=config)
    return base.project(base.schema.qi_names[:2])


def _bench_table():
    return make_sal(10**6, seed=7, config=CensusConfig.scaled(0.24))


def _recording_state_class(log: list, created: list):
    """A :class:`GroupState` that logs its calls as ``(index, op, *args)``."""

    class RecordingState(GroupState):
        __slots__ = ("_index",)

        def __init__(self) -> None:
            super().__init__()
            self.register()

        def register(self) -> None:
            self._index = len(created)
            created.append(self)

        def add(self, value, row):
            log.append((self._index, "add", value, row))
            super().add(value, row)

        def bulk_append(self, runs):
            runs = list(runs)
            for value, rows in runs:
                log.extend((self._index, "add", value, row) for row in rows)
            super().bulk_append(runs)

        def remove_one(self, value):
            log.append((self._index, "remove_one", value))
            return super().remove_one(value)

        def pillars_view(self):
            log.append((self._index, "pillars_view"))
            return super().pillars_view()

    return RecordingState


def _record_tp_operations(table, l):
    """``(state count, [(state index, op, *args)], phase reached)`` of one
    oracle TP run."""
    log: list[tuple] = []
    created: list[GroupState] = []
    run = run_tp(table, l, state_factory=_recording_state_class(log, created))
    return len(created), log, run.stats.phase_reached


def _record_production_operations(table, l):
    """The same triple for one production TP run.

    A group's state is logged as one ``add`` per row when the state
    materializes it, in the order of its dicts.
    """
    log: list[tuple] = []
    created: list[GroupState] = []
    recording = _recording_state_class(log, created)
    materialize = AlgorithmState._materialize

    def logged_materialize(state, group_id):
        group = materialize(state, group_id)
        group.register()
        for value, rows in group._rows.items():
            log.extend((group._index, "add", value, row) for row in rows)
        return group

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state_module, "GroupState", recording)
        patch.setattr(AlgorithmState, "_materialize", logged_materialize)
        _state, stats = run_state(table, l)
    return len(created), log, stats.phase_reached


#: recording id -> (table factory, l, the phase its TP run ends in, recorder).
RECORDINGS = {
    "census-d2-l10": (_census_projection, 10, 2, _record_tp_operations),
    "phase-three-example": (phase_three_example, 4, 3, _record_tp_operations),
    "production-tp-l10-1e6": (_bench_table, 10, 2, _record_production_operations),
}


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


@pytest.fixture(scope="module", params=sorted(RECORDINGS))
def recorded(request):
    build, l, _phase, recorder = RECORDINGS[request.param]
    return request.param, recorder(build(), l)


def test_recordings_reach_the_later_phases(recorded):
    name, (_state_count, _log, phase_reached) = recorded
    assert phase_reached == RECORDINGS[name][2]


@pytest.mark.parametrize(
    "factory", [GroupState, NaiveGroupState], ids=["inverted-lists", "naive-recount"]
)
def test_tp_group_state_ablation(benchmark, recorded, factory):
    _name, (state_count, log, _phase) = recorded
    answers = benchmark.pedantic(
        lambda: _replay(factory, state_count, log), rounds=1, iterations=1
    )
    assert len(answers) == sum(1 for entry in log if entry[1] != "add")


def test_both_implementations_agree(recorded):
    _name, (state_count, log, _phase) = recorded
    assert any(entry[1] == "remove_one" for entry in log)
    assert _replay(GroupState, state_count, log) == _replay(
        NaiveGroupState, state_count, log
    )
