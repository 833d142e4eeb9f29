"""Fault-injection hooks: deliberately break the serving stack, on demand.

Crash-safety claims ("no job lost across a worker kill") are only as good as
the crashes they were tested against.  A :class:`FaultPlan` describes the
failures the stack should inject into itself — worker-process death, job
delays (to trip the per-job timeout), a one-shot ledger-append failure — in
a deterministic, seedable form shared by the unit tests and the chaos smoke
(``scripts/chaos_smoke.py``).

Gating: every hook is a **no-op** unless a plan is active.  A plan activates
through either

* :func:`install_plan` — in-process, for tests (pair with :func:`clear_plan`);
* the ``REPRO_FAULTS`` environment variable holding the plan's JSON encoding
  (:meth:`FaultPlan.to_env`) — the route the chaos smoke uses, because
  ``ldiversity serve`` forks its pool workers and they inherit the variable.

Cross-process one-shot faults (``delay_once`` across a pool of workers)
coordinate through atomically-created token files under ``scratch_dir``;
without a scratch dir, one-shot consumption is tracked per process.

Worker-death semantics: in a real pool worker process the kill is a hard
``os._exit`` (no finally blocks, no atexit — the same shape as an OOM kill),
which surfaces to the pool as :class:`BrokenProcessPool`.  Thread-executor
workers (the unit-test configuration) cannot be killed, so the hook raises
:class:`BrokenProcessPool` directly — the pool's recovery path sees the
identical exception either way.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

__all__ = [
    "FAULTS_ENV_VAR",
    "WORKER_KILL_EXIT_CODE",
    "FaultPlan",
    "active_plan",
    "apply_worker_faults",
    "clear_plan",
    "install_plan",
    "maybe_fail_ledger_append",
]

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit code of a deliberately killed worker — distinctive in chaos logs, so
#: an injected death is never mistaken for a real crash.
WORKER_KILL_EXIT_CODE = 86


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected failures.

    All fields default to "off"; an all-defaults plan injects nothing.
    """

    #: Kill the executing worker after every Nth job *it* has run (0 = off).
    #: The counter is per worker process, so a pool keeps losing workers at a
    #: steady, deterministic rate while most jobs still complete.
    kill_every: int = 0
    #: Poison seeds: executing a job spec whose ``seed`` is listed kills the
    #: worker on *every* attempt — the job can only end in quarantine.
    kill_seeds: tuple[int, ...] = ()
    #: Sleep injected into matching jobs before any work happens (0 = off).
    delay_seconds: float = 0.0
    #: Which job-spec seeds are delayed; empty = every job (when delaying).
    delay_seeds: tuple[int, ...] = ()
    #: Delay each matching seed only once (first attempt times out, the retry
    #: runs clean — the "timeout-then-succeed" scenario).  ``False`` delays
    #: every attempt.
    delay_once: bool = True
    #: Make the next ledger append raise :class:`OSError`, once.
    fail_ledger_append_once: bool = False
    #: Directory for cross-process one-shot tokens (atomic ``O_EXCL`` files).
    #: Empty = per-process tracking only.
    scratch_dir: str = ""
    #: Reserved for randomized plans; fixed in CI so runs are reproducible.
    seed: int = 0

    # ------------------------------------------------------------- encoding

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in payload.items() if key in known}
        for name in ("kill_seeds", "delay_seeds"):
            if name in kwargs:
                kwargs[name] = tuple(int(value) for value in kwargs[name])
        return cls(**kwargs)

    def to_env(self) -> str:
        """The JSON value to export as ``REPRO_FAULTS``."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    # ------------------------------------------------------------ one-shots

    def consume_once(self, token: str) -> bool:
        """Atomically claim a one-shot token; ``True`` exactly once per token.

        With a ``scratch_dir`` the claim is an ``open(..., "x")`` marker file,
        so it holds across every process sharing the plan; otherwise it is
        tracked in this process only.
        """
        if self.scratch_dir:
            path = Path(self.scratch_dir) / f"fault-{token}.token"
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "x"):
                    return True
            except FileExistsError:
                return False
            except OSError:  # pragma: no cover - scratch dir unusable
                return False
        key = (id(self), token)
        if key in _consumed_tokens:
            return False
        _consumed_tokens.add(key)
        return True


#: In-process one-shot tokens (plans without a scratch dir).
_consumed_tokens: set[tuple[int, str]] = set()

#: Plan installed by :func:`install_plan` (tests); overrides the environment.
_installed: FaultPlan | None = None

#: Cache of the last environment parse, keyed by the raw variable value.
_env_cache: tuple[str, FaultPlan | None] = ("", None)

#: Jobs executed by *this* process's workers, for ``kill_every``.
_jobs_executed = 0


def install_plan(plan: FaultPlan) -> None:
    """Activate a plan in this process (tests); undo with :func:`clear_plan`."""
    global _installed
    _installed = plan


def clear_plan() -> None:
    global _installed
    _installed = None


def active_plan() -> FaultPlan | None:
    """The installed plan, else the ``REPRO_FAULTS`` environment plan, else None."""
    if _installed is not None:
        return _installed
    raw = os.environ.get(FAULTS_ENV_VAR, "")
    if not raw:
        return None
    global _env_cache
    if _env_cache[0] != raw:
        try:
            plan = FaultPlan.from_dict(json.loads(raw))
        except (json.JSONDecodeError, TypeError, ValueError):
            plan = None
        _env_cache = (raw, plan)
    return _env_cache[1]


def _kill_worker(cause: str) -> None:
    """Die the way a crashed worker dies.

    A forked/spawned pool worker hard-exits (``os._exit`` skips finally
    blocks and atexit handlers, like a SIGKILL/OOM would); the pool observes
    :class:`BrokenProcessPool`.  In the main process (thread executors) the
    same exception is raised directly.
    """
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(WORKER_KILL_EXIT_CODE)
    raise BrokenProcessPool(f"fault injection: {cause}")


def apply_worker_faults(seed: int) -> None:
    """Hook called by the job executor, with the parsed job spec's seed,
    before any real work.

    No-op without an active plan.  Order matters: delays land before kills so
    a seed listed in both can first wedge (tripping the job timeout) and then
    die — though plans normally use disjoint seeds.
    """
    plan = active_plan()
    if plan is None:
        return
    global _jobs_executed
    _jobs_executed += 1
    if plan.delay_seconds > 0 and (not plan.delay_seeds or seed in plan.delay_seeds):
        if not plan.delay_once or plan.consume_once(f"delay-{seed}"):
            time.sleep(plan.delay_seconds)
    if seed in plan.kill_seeds:
        _kill_worker(f"poison seed {seed}")
    if plan.kill_every and _jobs_executed % plan.kill_every == 0:
        _kill_worker(f"kill_every={plan.kill_every} (job #{_jobs_executed})")


def maybe_fail_ledger_append() -> None:
    """Hook called by :meth:`~repro.service.jobs.JobLedger._append`.

    Raises :class:`OSError` exactly once when the active plan asks for it —
    the same failure shape as a disk-full append — so tests can prove a job
    still reaches a terminal state when a lifecycle write is lost.
    """
    plan = active_plan()
    if plan is None or not plan.fail_ledger_append_once:
        return
    if plan.consume_once("ledger-append"):
        raise OSError("fault injection: ledger append failed")
