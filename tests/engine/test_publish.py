"""Crash points of every on-disk writer.

Each case forks a child that runs one writer with the publish primitives
(``os.fsync``, ``os.rename``, ``os.replace``, ``shutil.rmtree``) and one call
inside the writer's own ``write`` callback wrapped, so that the k-th of those
calls ``os._exit`` instead of running; k counts up until the child finishes.
After each kill the real reader must find the old version or the new one —
or, only between the two renames of a directory replacement, nothing — and
never a mix; the next publish must then succeed and sweep the leftovers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np
import pytest

from repro.dataset.generalized import GeneralizedTable, Partition
from repro.dataset.synthetic import CensusConfig, make_occ, make_sal
from repro.engine import columnstore
from repro.engine.cache import CachedRun, ResultCache
from repro.engine.columnstore import ColumnStore, ResultArtifact, StoreOrderCache
from repro.engine.registry import algorithm_registry
from repro.engine.sources import CsvDecoder
from repro.errors import DataSourceError
from repro.privacy.spec import FrequencyLDiversity
from repro.service.jobs import JobLedger
from repro.service.store import RunStore

CRASHED = 75
#: A forked child that outlives this hung (say, on a lock a thread held at fork).
CHILD_SECONDS = 30.0
#: More kill points than any writer has: the loop must end by finishing.
MAX_POINTS = 60
PRIMITIVES = [(os, "fsync"), (os, "rename"), (os, "replace"), (shutil, "rmtree")]
ABSENT = "absent"


@dataclasses.dataclass
class Case:
    directory: Path  # where the writer's temps appear
    reset: Callable[[], None]  # put the old version in place
    write: Callable[[], None]  # the writer publishing the new version
    read: Callable[[], object]  # the real reader; raises or returns ABSENT when absent
    old: object
    new: object
    inside: tuple  # (owner, attribute) called inside the writer's write callback


def _table(maker, n: int = 240, seed: int = 1):
    return maker(n, seed=seed, config=CensusConfig.scaled(0.2))


def _fingerprint(directory: Path) -> object:
    try:
        return ColumnStore.mmap(directory).fingerprint()
    except DataSourceError:
        if directory.exists():
            raise
        return ABSENT


def _columnstore_save(root: Path) -> Case:
    """The probe: re-saving a SAL store as an OCC one of the same shape."""
    target = root / "store"
    old = ColumnStore.from_table(_table(make_sal, seed=1))
    new = ColumnStore.from_table(_table(make_occ, seed=2))
    return Case(
        root, lambda: old.save(target), lambda: new.save(target),
        lambda: _fingerprint(target), old.fingerprint(), new.fingerprint(), (np, "save"),
    )


def _write_csv(path: Path, table) -> Path:
    table.to_csv(str(path))
    return path


def _convert_csv(root: Path) -> Case:
    target = root / "store"
    first = _table(make_sal, seed=1)
    old_csv, new_csv = _write_csv(root / "old.csv", first), root / "new.csv"
    _write_csv(new_csv, _table(make_sal, seed=2))
    qi, sa = list(first.schema.qi_names), first.schema.sensitive.name

    def convert(path: Path) -> None:
        ColumnStore.convert_csv(path, target, qi, sa)

    return Case(
        root, lambda: convert(old_csv), lambda: convert(new_csv), lambda: _fingerprint(target),
        ColumnStore.convert_csv(old_csv, root / "a", qi, sa).fingerprint(),
        ColumnStore.convert_csv(new_csv, root / "b", qi, sa).fingerprint(),
        (CsvDecoder, "remap"),
    )


def _artifact_save(root: Path) -> Case:
    target = root / "results" / "job-0001"
    table = _table(make_sal)
    old = ResultArtifact.from_generalized(
        GeneralizedTable.from_partition(table, Partition.by_qi(table))
    )
    new = ResultArtifact.from_generalized(algorithm_registry.get("TP").runner(table, 3).generalized)

    def read() -> object:
        try:
            return ResultArtifact.mmap(target).csv_bytes()
        except DataSourceError:
            if target.exists():
                raise
            return ABSENT

    return Case(
        target.parent, lambda: old.save(target), lambda: new.save(target), read,
        old.csv_bytes(), new.csv_bytes(), (np, "save"),
    )


def _run_store_put(root: Path) -> Case:
    path = root / "runs"
    table = _table(make_sal)
    output = algorithm_registry.get("Mondrian").runner(table, 3)
    run = CachedRun(output=output, anonymize_seconds=0.1, shard_sizes=(len(table),))
    key = ResultCache.key(table.fingerprint(), "Mondrian", 3, 1, 0, FrequencyLDiversity(3))

    def read() -> object:
        store = RunStore(path)
        hit = store.get(key, table)
        assert store.recovered == 0, "a torn record was published"
        if hit is None:
            return ABSENT
        return ResultArtifact.from_generalized(hit.output.generalized).csv_bytes()

    return Case(
        path, lambda: shutil.rmtree(path, ignore_errors=True),
        lambda: RunStore(path).put(key, run), read,
        ABSENT, ResultArtifact.from_generalized(output.generalized).csv_bytes(), (np, "save"),
    )


def _order_cache(root: Path) -> Case:
    directory = ColumnStore.from_table(_table(make_sal)).save(root / "store")
    table = ColumnStore.mmap(directory).table()
    order = np.argsort(table.sa_array, kind="stable")

    def reset() -> None:
        for name in (columnstore.ORDER_FILE, columnstore.ORDER_META_FILE):
            (directory / name).unlink(missing_ok=True)

    def read() -> object:
        loaded = StoreOrderCache(directory).load(table)
        return ABSENT if loaded is None else loaded.tolist()

    return Case(
        directory, reset,
        lambda: StoreOrderCache(directory).store(table, order), read,
        ABSENT, order.tolist(), (np, "save"),
    )


def _ledger_compact(root: Path) -> Case:
    path = root / "ws" / "jobs.jsonl"
    ledger = JobLedger(path)
    for label in ("a", "b"):
        job = ledger.create(label=label, algorithm="TP", l=2)
        ledger.transition(job.id, "running")
        ledger.transition(job.id, "done", stars=3)
    records = [dataclasses.asdict(record) for record in ledger.list()]
    old = path.read_bytes()
    JobLedger(path).compact()
    new = path.read_bytes()

    def read() -> object:
        assert [dataclasses.asdict(record) for record in JobLedger(path).list()] == records
        return path.read_bytes()

    return Case(
        path.parent, lambda: path.write_bytes(old), lambda: JobLedger(path).compact(), read,
        old, new, (json, "dumps"),
    )


CASES = {
    "columnstore-save": _columnstore_save,
    "convert-csv": _convert_csv,
    "artifact-save": _artifact_save,
    "run-store-put": _run_store_put,
    "order-cache": _order_cache,
    "ledger-compact": _ledger_compact,
}


def _kill_at(point: int, case: Case, log: Path) -> int:
    """Run the writer in a child killed before its ``point``-th wrapped call;
    returns the child's exit code (0 when it finished first)."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its exit code
        try:
            calls: list[str] = []
            for owner, attribute in [*PRIMITIVES, case.inside]:
                original = getattr(owner, attribute)

                def wrapped(*args, _original=original, _name=attribute, **kwargs):
                    calls.append(_name)
                    if len(calls) == point:
                        log.write_text(" ".join(calls))
                        os._exit(CRASHED)
                    return _original(*args, **kwargs)

                setattr(owner, attribute, wrapped)
            case.write()
        except BaseException:
            os._exit(1)
        os._exit(0)
    deadline = time.monotonic() + CHILD_SECONDS
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.001)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"the writer's child hung past {CHILD_SECONDS}s")


@pytest.mark.parametrize("name", list(CASES))
def test_a_killed_writer_leaves_the_old_or_the_new_version(name, tmp_path):
    case = CASES[name](tmp_path)
    log = tmp_path / "killed-at"
    listings = []  # the writer's directory after each republish
    for point in range(1, MAX_POINTS + 1):
        case.reset()
        assert case.read() == case.old
        code = _kill_at(point, case, log)
        if code == 0:
            break
        assert code == CRASHED, f"the writer failed before kill point {point}"
        calls = log.read_text().split()
        state = case.read()
        # Only a directory replacement's second rename may find nothing.
        window = calls[-1] == "replace" and "rename" in calls and case.old != ABSENT
        allowed = (case.old, case.new, ABSENT) if window else (case.old, case.new)
        assert state in allowed, f"killed before {calls[-1]} (call {point}): a mix"

        case.write()  # the next publish succeeds and sweeps the leftovers
        assert case.read() == case.new
        listings.append(os.listdir(case.directory))
    else:
        pytest.fail(f"the writer never finished within {MAX_POINTS} kill points")
    assert point > 3, "the kill points were never reached"
    assert not [name for names in listings for name in names if columnstore.is_temp(name)]
