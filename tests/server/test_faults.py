"""Unit tests for the fault plan itself (``tests/fault_plan.py``).

The recovery tests (``test_recovery.py``) hand the faulty job function to a
live server; here the plan's own contract is pinned down: an empty plan is
inert, the launcher argument round-trips, one-shots fire once, and the
kill/delay schedules are deterministic.
"""

from __future__ import annotations

import functools
from concurrent.futures.process import BrokenProcessPool

import pytest

import tests.fault_plan as fault_plan
from repro.server.pool import execute_job
from repro.service.jobs import JobLedger
from tests.fault_plan import FaultPlan, apply_faults, fail_next_append, faulty_execute_job


@pytest.fixture(autouse=True)
def _zero_job_counter(monkeypatch):
    """Every test starts with a zeroed per-process job counter."""
    monkeypatch.setattr(fault_plan, "_jobs_executed", 0)


class TestGating:
    def test_no_plan_means_every_hook_is_a_noop(self):
        apply_faults(FaultPlan(), 0)  # must not raise

    def test_empty_plan_runs_the_real_job(self, tmp_path):
        spec = {
            "algorithm": "TP", "l": 2, "seed": 666, "include_rows": False,
            "source": {"kind": "synthetic", "dataset": "SAL", "n": 80, "seed": 1,
                       "dimension": 2},
        }
        run_job = functools.partial(faulty_execute_job, FaultPlan())
        faulty = run_job(spec, str(tmp_path), False, 1)
        plain = execute_job(spec, str(tmp_path), False, 1)
        assert faulty["stars"] == plain["stars"]
        assert faulty["verified"] is plain["verified"] is True

    def test_launcher_argument_round_trip(self):
        plan = FaultPlan(
            kill_every=5,
            kill_seeds=(666,),
            delay_seconds=1.5,
            delay_seeds=(777, 778),
            delay_once=False,
            hold_seconds=0.5,
            hold_seeds=(888,),
            scratch_dir="/tmp/tokens",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan


class TestOneShots:
    def test_consume_once_in_process(self):
        plan = FaultPlan()
        assert plan.consume_once("t") is True
        assert plan.consume_once("t") is False
        assert plan.consume_once("other") is True

    def test_consume_once_across_plan_copies_with_scratch_dir(self, tmp_path):
        """Two deserialized copies of one plan (two processes in real life)
        must agree on who claimed a token."""
        first = FaultPlan(scratch_dir=str(tmp_path))
        second = FaultPlan.from_json(first.to_json())
        assert first.consume_once("t") is True
        assert second.consume_once("t") is False

    def test_ledger_append_fails_exactly_once(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        record = ledger.create(label="x", algorithm="TP", l=2)
        fail_next_append(ledger, "running")
        with pytest.raises(OSError):
            ledger.transition(record.id, "running")
        ledger.transition(record.id, "running")  # consumed: no longer raises
        assert ledger.get(record.id).status == "running"


class TestWorkerFaults:
    def test_kill_every_nth_job(self):
        plan = FaultPlan(kill_every=3)
        apply_faults(plan, 1)
        apply_faults(plan, 2)
        with pytest.raises(BrokenProcessPool):
            apply_faults(plan, 3)

    def test_poison_seed_kills_every_attempt(self):
        plan = FaultPlan(kill_seeds=(666,))
        apply_faults(plan, 1)
        for _ in range(3):
            with pytest.raises(BrokenProcessPool):
                apply_faults(plan, 666)

    def test_delay_once_applies_to_the_first_attempt_only(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(fault_plan.time, "sleep", slept.append)
        plan = FaultPlan(delay_seconds=2.0, delay_seeds=(777,))
        apply_faults(plan, 1)  # not a delayed seed
        apply_faults(plan, 777)
        apply_faults(plan, 777)  # delay_once consumed
        assert slept == [2.0]

    def test_delay_every_attempt_when_delay_once_is_off(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(fault_plan.time, "sleep", slept.append)
        plan = FaultPlan(delay_seconds=0.5, delay_once=False)
        apply_faults(plan, 1)
        apply_faults(plan, 2)
        assert slept == [0.5, 0.5]

    def test_hold_applies_to_every_attempt_of_a_held_seed(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(fault_plan.time, "sleep", slept.append)
        plan = FaultPlan(hold_seconds=1.5, hold_seeds=(888,))
        apply_faults(plan, 1)  # not a held seed
        apply_faults(plan, 888)
        apply_faults(plan, 888)
        assert slept == [1.5, 1.5]
