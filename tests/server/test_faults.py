"""Unit tests for the fault-injection module itself.

The recovery tests (``test_recovery.py``) use these hooks to break a live
server; here the hooks' own contract is pinned down — gating, env encoding,
one-shot semantics, and the deterministic kill/delay schedules.
"""

from __future__ import annotations

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.server import faults
from repro.server.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    active_plan,
    apply_worker_faults,
    clear_plan,
    install_plan,
    maybe_fail_ledger_append,
)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Every test starts with no plan and a zeroed per-process job counter."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    monkeypatch.setattr(faults, "_jobs_executed", 0)
    clear_plan()
    yield
    clear_plan()


class TestGating:
    def test_no_plan_means_every_hook_is_a_noop(self):
        assert active_plan() is None
        apply_worker_faults(0)  # must not raise
        maybe_fail_ledger_append()

    def test_installed_plan_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, FaultPlan(kill_every=7).to_env())
        install_plan(FaultPlan(kill_every=3))
        assert active_plan().kill_every == 3
        clear_plan()
        assert active_plan().kill_every == 7

    def test_env_round_trip(self, monkeypatch):
        plan = FaultPlan(
            kill_every=5,
            kill_seeds=(666,),
            delay_seconds=1.5,
            delay_seeds=(777,),
            fail_ledger_append_once=True,
            seed=42,
        )
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_env())
        assert active_plan() == plan

    def test_malformed_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "{not json")
        assert active_plan() is None


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
        second = FaultPlan.from_dict(first.to_dict())
        assert first.consume_once("t") is True
        assert second.consume_once("t") is False

    def test_ledger_append_fails_exactly_once(self):
        install_plan(FaultPlan(fail_ledger_append_once=True))
        with pytest.raises(OSError):
            maybe_fail_ledger_append()
        maybe_fail_ledger_append()  # consumed: no longer raises


class TestWorkerFaults:
    def test_kill_every_nth_job(self):
        install_plan(FaultPlan(kill_every=3))
        apply_worker_faults(1)
        apply_worker_faults(2)
        with pytest.raises(BrokenProcessPool):
            apply_worker_faults(3)

    def test_poison_seed_kills_every_attempt(self):
        install_plan(FaultPlan(kill_seeds=(666,)))
        apply_worker_faults(1)
        for _ in range(3):
            with pytest.raises(BrokenProcessPool):
                apply_worker_faults(666)

    def test_delay_once_applies_to_the_first_attempt_only(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        install_plan(FaultPlan(delay_seconds=2.0, delay_seeds=(777,)))
        apply_worker_faults(1)  # not a delayed seed
        apply_worker_faults(777)
        apply_worker_faults(777)  # delay_once consumed
        assert slept == [2.0]

    def test_delay_every_attempt_when_delay_once_is_off(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        install_plan(FaultPlan(delay_seconds=0.5, delay_once=False))
        apply_worker_faults(1)
        apply_worker_faults(2)
        assert slept == [0.5, 0.5]
