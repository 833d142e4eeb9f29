"""The in-process workloads, run in a worker process started by ``run.py``.

``csv-roundtrip-1m``: one op is what ``ldiversity anonymize --mmap
--no-store --output`` does, called in-process: ``ColumnStore.convert_csv``
into a fresh store directory (a cold store and a cold sort every time), then
``Engine.run`` (TP+, l=6, planner-chosen shards, ``use_cache=False``), then
``CsvSink.write_table``.

``store-sweep-1m``: set-up converts the CSV once and opens the store, which
writes its ``order.npy`` sidecar; every op is then one ``Engine.run`` off
the memory-mapped store, cycling through :data:`SWEEP`.

A run executes ``--cycles`` whole cycles (a ``csv-roundtrip-1m`` cycle is one
op).  Each op's output is checked by ``oracle.py`` in a process of its own,
after this process has read its peak RSS for the op, so the check's memory
never counts as the program's.

The worker prints one JSON event per line on its standard output:
``ready``, ``setup`` (seconds of each set-up), ``op_start``, ``op_end`` and
``done``.  ``run.py`` enforces each op's deadline from ``op_start`` and kills
the worker's process group when one passes.  The program is imported inside
the run's root span, so the span tree accounts for the worker's whole life.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import Op, layer_values, replay_engine
from recorder import Recorder, median, process_age_seconds, root_matches_wall, tree_problems

ROUNDTRIP = Op("tpplus-l6", "TP+", 6)
SWEEP = (
    Op("tp-l4", "TP", 4, metrics=("stars", "ncp", "kl")),
    Op("tpplus-l8", "TP+", 8, metrics=("stars", "ncp", "kl")),
    Op("tp-l10", "TP", 10, metrics=("stars", "ncp", "kl")),
    Op("tpplus-l6-s2", "TP+", 6, shards=2, metrics=("stars", "ncp", "kl")),
)
ORACLE = Path(__file__).with_name("oracle.py")
#: Seconds one output check may take.
CHECK_TIMEOUT = 60
#: Rows per chunk when saving a published table for the check.
SAVE_CHUNK = 100_000

_events = None


def emit(event: str, **fields) -> None:
    _events.write(json.dumps({"event": event, **fields}) + "\n")
    _events.flush()


def peak_rss_mb() -> float:
    """This process's peak RSS so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def save_published(generalized, directory: Path) -> None:
    """Save a published table in the form ``oracle.py`` checks, a chunk of
    rows at a time, so saving adds no table-sized copy to this process."""
    import numpy as np
    from repro.dataset import STAR

    directory.mkdir()
    schema = generalized.schema
    labels = {
        "qi_names": list(schema.qi_names),
        "qi": [[str(value) for value in attribute.values] for attribute in schema.qi],
        "sa": [str(value) for value in schema.sensitive.values],
    }
    (directory / "labels.json").write_text(json.dumps(labels))
    np.save(directory / "sa.npy", generalized.sa_codes())
    columnar = generalized.columnar_publish()
    with open(directory / "qi.i32", "wb") as handle:
        for start in range(0, len(generalized), SAVE_CHUNK):
            stop = min(start + SAVE_CHUNK, len(generalized))
            if columnar is not None:
                representatives, starred, group_of, _ = columnar
                rows = group_of[start:stop]
                chunk = np.where(starred[rows], -1, representatives[rows])
            else:  # merged shards carry row cells only
                chunk = [
                    [-1 if cell is STAR else cell for cell in row]
                    for row in generalized.cell_rows[start:stop]
                ]
            np.asarray(chunk, dtype=np.int32).tofile(handle)


class Workload:
    """State shared by the ops of one run."""

    def __init__(self, arguments, rec: Recorder) -> None:
        self.rec = rec
        self.input = Path(arguments.input)
        self.csv = self.input.with_suffix(".csv")
        self.csv_bytes = self.csv.stat().st_size
        self.meta = json.loads(self.input.with_suffix(".json").read_text())
        self.work = Path(arguments.work)
        self.unattributed: list[float] = []

    def engine_run(self, op: Op, store_dir: Path):
        from repro.engine import ColumnStoreSource, Engine, RunPlan
        from repro.engine.cache import ResultCache

        plan = RunPlan(
            source=ColumnStoreSource(str(store_dir)),
            algorithm=op.algorithm,
            l=op.l,
            shards=op.shards,
            workers=op.workers,
            metrics=op.metrics,
            use_cache=False,
        )
        with self.rec.span("engine.run") as span:
            report = Engine(cache=ResultCache()).run(plan)
        return report, span

    def attribute(self, op: Op, store_dir: Path, engine_span, cold_sort: bool) -> None:
        """Replay the op's layers (traced runs only, after the op)."""
        from repro.engine import ColumnStore, ColumnStoreSource

        with self.rec.span("attribution", op=op.name):
            started = self.rec.clock()
            with self.rec.span("columnstore.open"):
                # The op itself saw no order.npy sidecar on a fresh store.
                if cold_sort:
                    table = ColumnStore.mmap(store_dir).table()
                else:
                    table = ColumnStoreSource(str(store_dir)).load()
            replay_engine(self.rec, table, op)
            self.unattributed.append(engine_span.seconds - (self.rec.clock() - started))

    def check(self, kind: str, published: Path, op: Op, claimed: int) -> int:
        """Run ``oracle.py`` on a published output; returns its stars."""
        with self.rec.span("check"):
            result = subprocess.run(
                [sys.executable, str(ORACLE), kind, "--published", str(published),
                 "--input", str(self.input), "--l", str(op.l)],
                capture_output=True, text=True, timeout=CHECK_TIMEOUT,
            )
        if result.returncode:
            raise RuntimeError(f"output check failed: {result.stderr.strip()[-2000:]}")
        stars = json.loads(result.stdout)["stars"]
        if claimed != stars:
            raise RuntimeError(f"the program claims {claimed} stars, {stars} published")
        return stars

    def roundtrip_op(self, index: int) -> tuple[float, float, int]:
        from repro.engine import ColumnStore, CsvSink

        op = ROUNDTRIP
        store_dir = self.work / f"store-{index}"
        output = self.work / f"published-{index}.csv"
        started = time.perf_counter()
        with self.rec.span("op", op=op.name):
            with self.rec.span("columnstore.convert", bytes=self.csv_bytes):
                ColumnStore.convert_csv(self.csv, store_dir, self.meta["qi"], self.meta["sa"])
            report, engine_span = self.engine_run(op, store_dir)
            with self.rec.span("sinks.write") as sink_span:
                with CsvSink(output) as sink:
                    sink.write_table(report.generalized)
        seconds = time.perf_counter() - started
        peak = peak_rss_mb()
        claimed = report.generalized.star_count()
        del report
        try:
            stars = self.check("csv", output, op, claimed)
            if self.rec.enabled:
                sink_span.attrs["bytes"] = output.stat().st_size
                self.attribute(op, store_dir, engine_span, cold_sort=True)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
            output.unlink(missing_ok=True)
        return seconds, peak, stars

    def setup_store(self) -> tuple[Path, float]:
        """Convert the store and open it once, which writes ``order.npy``."""
        from repro.engine import ColumnStore, ColumnStoreSource

        store_dir = self.work / "store"
        started = time.perf_counter()
        with self.rec.span("setup"):
            with self.rec.span("columnstore.convert", bytes=self.csv_bytes):
                ColumnStore.convert_csv(self.csv, store_dir, self.meta["qi"], self.meta["sa"])
            with self.rec.span("setup.first-open"):
                ColumnStoreSource(str(store_dir)).load().grouping()
        return store_dir, time.perf_counter() - started

    def sweep_op(self, op: Op, store_dir: Path) -> tuple[float, float, int]:
        started = time.perf_counter()
        with self.rec.span("op", op=op.name):
            report, engine_span = self.engine_run(op, store_dir)
        seconds = time.perf_counter() - started
        peak = peak_rss_mb()
        published = self.work / "published"
        try:
            with self.rec.span("save-published"):
                save_published(report.generalized, published)
            claimed = report.generalized.star_count()
            if report.metric_values.get("stars") != claimed:
                raise RuntimeError(f"stars metric {report.metric_values.get('stars')} != {claimed} in the table")
            del report
            stars = self.check("arrays", published, op, claimed)
        finally:
            shutil.rmtree(published, ignore_errors=True)
        if self.rec.enabled:
            self.attribute(op, store_dir, engine_span, cold_sort=False)
        return seconds, peak, stars


def main(argv: list[str]) -> int:
    global _events
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("workload", "input", "work", "trace-file"):
        parser.add_argument(f"--{name}", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    arguments = parser.parse_args(argv)

    # Events get the real stdout; anything the program prints goes to stderr.
    _events = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    roundtrip = arguments.workload == "csv-roundtrip-1m"
    rec = Recorder(enabled=bool(arguments.trace))
    with rec.span("run", workload=arguments.workload, seed=arguments.seed):
        with rec.span("imports"):
            import repro.engine  # noqa: F401 - the program, loaded inside the root span
        workload = Workload(arguments, rec)
        emit("ready")
        if roundtrip:
            emit("setup", seconds=[])
            cycle = [ROUNDTRIP]
        else:
            store_dir, seconds = workload.setup_store()
            emit("setup", seconds=[seconds])
            cycle = list(SWEEP)
        for index, op in enumerate(cycle * arguments.cycles):
            emit("op_start", op=op.name)
            try:
                if roundtrip:
                    seconds, peak, stars = workload.roundtrip_op(index)
                else:
                    seconds, peak, stars = workload.sweep_op(op, store_dir)
            except Exception as error:  # noqa: BLE001 - a failed op is reported, the run goes on
                traceback.print_exc()
                emit("op_end", op=op.name, ok=False, error=f"{type(error).__name__}: {error}")
                continue
            emit("op_end", op=op.name, ok=True, seconds=seconds, rows=workload.meta["rows"],
                 stars=stars, peak_rss_mb=peak)
    wall = process_age_seconds()
    per_layer, problems = {}, []
    if rec.enabled:
        per_layer = layer_values(rec)
        per_layer["engine.unattributed_s"] = median(workload.unattributed)
        problems = tree_problems(rec.root)
        if not root_matches_wall(rec.root, wall):
            problems.append(f"root {rec.root.seconds:.3f}s is not within 1% of the process's "
                            f"{wall:.3f}s wall time")
        Path(arguments.trace_file).write_text(
            json.dumps({"wall_s": wall, "problems": problems, "root": rec.tree()}, indent=1)
        )
    emit("done", per_layer=per_layer, tree_problems=problems)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
