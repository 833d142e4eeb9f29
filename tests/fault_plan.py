"""Fault injection for the serving stack: a plan and the faulty job function.

Crash-safety claims ("no job lost across a worker kill") are only as good as
the crashes they were tested against.  A :class:`FaultPlan` describes the
failures to inject — worker-process death, job delays that trip the per-job
timeout — in a deterministic form shared by the failure-matrix tests and the
chaos smoke (``scripts/chaos_smoke.py``).

The plan reaches a server through the one seam that needs no switch: the job
function its pool runs.  ``functools.partial(faulty_execute_job, plan)`` is
passed as ``run_job`` to :class:`~repro.server.pool.WorkerPool` or
:class:`~repro.server.AnonymizationServer`; it applies the plan to the job's
seed and then runs the real :func:`~repro.server.pool.execute_job`.  A
module-level function over a frozen dataclass pickles into forked pool
workers.  A production server never passes ``run_job``, so it obeys no plan.

Worker death: in a pool worker process the kill is a hard ``os._exit`` (no
finally blocks, no atexit, the shape of an OOM kill), which the pool sees as
:class:`BrokenProcessPool`.  Thread-executor workers cannot be killed, so
the function raises :class:`BrokenProcessPool` itself; the pool's recovery
path sees the same exception either way.

Run as a script, this module is the chaos smoke's launcher: it boots the
server exactly as ``ldiversity serve`` does, with the plan's job function::

    PYTHONPATH=src python tests/fault_plan.py PLAN_JSON serve --port 8350 ...
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.cli import _command_serve, build_parser
from repro.server.jobspec import JobSpec
from repro.server.pool import execute_job

#: Exit code of a deliberately killed worker: distinctive in chaos logs, so an
#: injected death is never mistaken for a real crash.
WORKER_KILL_EXIT_CODE = 86

#: Jobs this process has run through :func:`faulty_execute_job`, for
#: ``kill_every``.  Each pool worker process counts its own.
_jobs_executed = 0


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures; the defaults inject none."""

    #: Kill the executing worker after every Nth job *it* has run (0 = off).
    #: The counter is per worker process, so a pool keeps losing workers at a
    #: steady, deterministic rate while most jobs still complete.
    kill_every: int = 0
    #: Poison seeds: a job whose ``seed`` is listed kills its worker on
    #: *every* attempt, so the job can only end in quarantine.
    kill_seeds: tuple[int, ...] = ()
    #: Sleep injected into matching jobs before any work happens (0 = off).
    delay_seconds: float = 0.0
    #: Which job seeds are delayed; empty = every job (when delaying).
    delay_seeds: tuple[int, ...] = ()
    #: Delay each matching seed only once (the first attempt times out, the
    #: retry runs clean).  ``False`` delays every attempt.
    delay_once: bool = True
    #: Directory for one-shot tokens shared by every process (atomic ``O_EXCL``
    #: files).  Empty = tokens are tracked on this plan object only.
    scratch_dir: str = ""
    _claimed: set = field(default_factory=set, compare=False, repr=False)

    def to_json(self) -> str:
        """The plan as the launcher's ``PLAN_JSON`` argument."""
        payload = asdict(self)
        del payload["_claimed"]
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        for name in ("kill_seeds", "delay_seeds"):
            payload[name] = tuple(payload.get(name, ()))
        return cls(**payload)

    def consume_once(self, token: str) -> bool:
        """Claim a one-shot token; ``True`` exactly once per token.

        With a ``scratch_dir`` the claim is an ``open(..., "x")`` marker file,
        so it holds across every process sharing the plan.
        """
        if self.scratch_dir:
            path = Path(self.scratch_dir) / f"fault-{token}.token"
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                with open(path, "x"):
                    return True
            except FileExistsError:
                return False
        if token in self._claimed:
            return False
        self._claimed.add(token)
        return True


def _kill_worker(cause: str) -> None:
    """Die the way a crashed worker dies (see the module docstring)."""
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(WORKER_KILL_EXIT_CODE)
    raise BrokenProcessPool(f"fault injection: {cause}")


def apply_faults(plan: FaultPlan, seed: int) -> None:
    """Delay or kill the job with this seed as the plan says.

    Delays land before kills, so a seed listed in both first wedges (tripping
    the job timeout) and then dies.
    """
    global _jobs_executed
    _jobs_executed += 1
    if plan.delay_seconds > 0 and (not plan.delay_seeds or seed in plan.delay_seeds):
        if not plan.delay_once or plan.consume_once(f"delay-{seed}"):
            time.sleep(plan.delay_seconds)
    if seed in plan.kill_seeds:
        _kill_worker(f"poison seed {seed}")
    if plan.kill_every and _jobs_executed % plan.kill_every == 0:
        _kill_worker(f"kill_every={plan.kill_every} (job #{_jobs_executed})")


def faulty_execute_job(plan: FaultPlan, spec: dict, *args) -> dict:
    """:func:`~repro.server.pool.execute_job` after the plan's faults."""
    apply_faults(plan, JobSpec.from_json(spec).plan.seed)
    return execute_job(spec, *args)


def fail_next_append(ledger, status: str) -> None:
    """Make ``ledger``'s next append of a ``status`` record raise
    :class:`OSError`, once: the shape of a disk-full lifecycle write."""
    append = ledger._append

    def append_or_fail(record) -> None:
        if record.status != status:
            return append(record)
        ledger._append = append
        raise OSError(f"fault injection: the {status!r} ledger append failed")

    ledger._append = append_or_fail


def main(argv: list[str]) -> int:
    """Boot ``ldiversity serve <argv[1:]>`` with the plan ``argv[0]``."""
    plan = FaultPlan.from_json(argv[0])
    arguments = build_parser().parse_args(argv[1:])
    return _command_serve(arguments, run_job=functools.partial(faulty_execute_job, plan))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
