"""End-to-end, layer-by-layer benchmark of the l-diversity system.

Runs one workload at one seed and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload csv-roundtrip-1m --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
``--trace 1`` is a separate run that times each layer and reports the
``per_layer`` ones, writing its span tree to ``.bench_state/traces/``.

Every op has a deadline (:data:`DEADLINES`).  An op past it counts as
failed, and the benchmark kills the process group doing the work.  All
state lives in ``.bench_state/`` under the checkout: the input cache, the
stars pins (one file per version of the code under test), traces, and one
scratch directory per run, removed at its end.
See ``NOTES.md`` for why each workload exists and what each layer metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

from pins import PinError, Pins, code_version
from recorder import (
    OpTally,
    Recorder,
    median,
    process_age_seconds,
    root_matches_wall,
    tail_percentile,
    tree_problems,
)

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_state"
ROWS_1M = 1_000_000
#: Whole cycles a run executes per 10 s of ``--seconds``.  Work per run is
#: fixed by ``--seconds`` alone, so every run of a workload, at any seed and
#: commit, does the same work.  On a 2-core machine a csv-roundtrip-1m op
#: takes 13-20 s, a store-sweep-1m cycle 10-14 s and a serve-mixed cycle
#: 3-6 s per client (slower as the server serves more jobs).  Runs stay short
#: so that comparing two commits over twenty runs per workload takes under an
#: hour even when the machine runs slow.
CYCLES_PER_10S = {"csv-roundtrip-1m": 1, "store-sweep-1m": 1, "serve-mixed": 3}
#: Seconds one op may take before it counts as failed and its worker is killed.
DEADLINES = {"csv-roundtrip-1m": 60.0, "store-sweep-1m": 40.0, "serve-mixed": 30.0}
#: Seconds a worker may take to import, set up, and report at its end.
WORKER_SETUP_DEADLINE = 100.0
#: Imports of the ``ldiversity`` CLI: the set-up of a ``csv-roundtrip-1m`` op.
IMPORT_PROBE = "import repro.cli"
IMPORT_PROBES = 3


def isolate_environment() -> None:
    """Drop every ``REPRO_*`` switch; child processes import ``src/``."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["PYTHONPATH"] = str(ROOT / "src")


def cycles(arguments) -> int:
    return max(1, round(arguments.seconds / 10 * CYCLES_PER_10S[arguments.workload]))


def run_inprocess(arguments, work: Path, pins: Pins, trace_file: Path) -> dict:
    """Drive ``inproc.py`` in its own process group, op deadline by op deadline."""
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inputs.py"), "--seed", str(arguments.seed),
         "--rows", str(ROWS_1M), "--cache", str(STATE / "cache")],
        check=True, timeout=170,
    )
    stem = STATE / "cache" / f"sal-seed{arguments.seed}-n{ROWS_1M}"
    setup_seconds = []
    if arguments.workload == "csv-roundtrip-1m":
        for _ in range(IMPORT_PROBES):
            started = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, timeout=60)
            setup_seconds.append(time.perf_counter() - started)

    worker = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "inproc.py"),
         "--workload", arguments.workload, "--seed", str(arguments.seed),
         "--cycles", str(cycles(arguments)), "--trace", str(arguments.trace),
         "--input", str(stem), "--work", str(work), "--trace-file", str(trace_file)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    events: queue.Queue = queue.Queue()

    def read_events() -> None:
        for line in worker.stdout:
            events.put(json.loads(line))
        events.put(None)

    reader = threading.Thread(target=read_events, daemon=True)
    reader.start()
    tally, op_seconds, rows, stars, peaks = OpTally(), [], 0, 0, [0.0]
    done: dict = {}
    open_op = None
    try:
        while True:
            limit = DEADLINES[arguments.workload] if open_op else WORKER_SETUP_DEADLINE
            try:
                event = events.get(timeout=limit)
            except queue.Empty:
                print(f"{arguments.workload}: {open_op or 'set-up'} passed its "
                      f"{limit:.0f}s deadline; killing the worker", file=sys.stderr)
                if open_op:
                    tally.timed_out += 1
                else:
                    tally.failed += 1
                break
            if event is None:
                if open_op or not done:
                    print(f"{arguments.workload}: the worker exited early", file=sys.stderr)
                    tally.failed += 1
                break
            kind = event["event"]
            if kind == "setup":
                setup_seconds.extend(event["seconds"])
            elif kind == "op_start":
                open_op = event["op"]
            elif kind == "op_end":
                open_op = None
                if event["ok"]:
                    try:
                        pins.check(f"{arguments.workload}/seed{arguments.seed}/{event['op']}",
                                   event["stars"])
                    except PinError as error:
                        print(f"{arguments.workload}: {error}", file=sys.stderr)
                        tally.failed += 1
                        continue
                    tally.passed += 1
                    peaks.append(event["peak_rss_mb"])
                    op_seconds.append(event["seconds"])
                    rows += event["rows"]
                    stars += event["stars"]
                else:
                    print(f"{arguments.workload}: {event['op']} failed: {event['error']}",
                          file=sys.stderr)
                    tally.failed += 1
            elif kind == "done":
                done = event
    finally:
        try:
            os.killpg(worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        worker.wait()
        reader.join(timeout=10)
    return {
        "tally": tally,
        "rows": rows,
        "stars": stars,
        "op_seconds": op_seconds,
        "busy_seconds": sum(op_seconds),
        "setup_seconds": setup_seconds,
        "peak_rss_mb": max(peaks),
        "per_layer": done.get("per_layer", {}),
        "tree_problems": done.get("tree_problems", []),
    }


def run_serving(arguments, work: Path, pins: Pins, trace_file: Path) -> dict:
    """Run ``serve-mixed`` in this process (the load generator)."""
    rec = Recorder(enabled=bool(arguments.trace))
    with rec.span("run", workload=arguments.workload, seed=arguments.seed):
        try:
            with rec.span("imports"):
                import serving
            outcome = serving.run(
                arguments.seed, cycles(arguments), rec, work, pins, DEADLINES["serve-mixed"]
            )
        except Exception:  # noqa: BLE001 - e.g. a server that never boots: one failed op
            traceback.print_exc()
            tally = OpTally()
            tally.failed = 1
            outcome = {"tally": tally, "rows": 0, "stars": 0, "op_seconds": [],
                       "busy_seconds": 0.0, "setup_seconds": [], "peak_rss_mb": 0.0,
                       "per_layer": {}}
    wall = process_age_seconds()
    outcome["tree_problems"] = []
    if rec.enabled:
        problems = tree_problems(rec.root)
        if not root_matches_wall(rec.root, wall):
            problems.append(f"root {rec.root.seconds:.3f}s is not within 1% of the process's "
                            f"{wall:.3f}s wall time")
        trace_file.write_text(
            json.dumps({"wall_s": wall, "problems": problems, "root": rec.tree()}, indent=1)
        )
        outcome["tree_problems"] = problems
    return outcome


def end_to_end(outcome: dict) -> dict[str, float]:
    tally = outcome["tally"]
    busy = outcome["busy_seconds"]
    return {
        "rows_per_s": outcome["rows"] / busy if busy else 0.0,
        "op_p50_s": median(outcome["op_seconds"]),
        "success_rate": tally.success_rate,
        "setup_s": median(outcome["setup_seconds"]),
        "peak_rss_mb": outcome["peak_rss_mb"],
        "stars_per_row": outcome["stars"] / outcome["rows"] if outcome["rows"] else 0.0,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEADLINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    # A terminated run still stops its worker or server (the finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the planner calibrates from the committed BENCH_*.json here
    isolate_environment()
    sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    for name in ("tmp", "traces"):
        (STATE / name).mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{arguments.workload}-", dir=STATE / "tmp"))
    pins = Pins(STATE / "pins" / f"{code_version(ROOT)}.json")
    trace_file = STATE / "traces" / f"{arguments.workload}-seed{arguments.seed}.json"
    try:
        if arguments.workload == "serve-mixed":
            outcome = run_serving(arguments, work, pins, trace_file)
        else:
            outcome = run_inprocess(arguments, work, pins, trace_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    pins.save()

    tally = outcome["tally"]
    for problem in outcome["tree_problems"]:
        print(f"span tree: {problem}", file=sys.stderr)
    values = end_to_end(outcome)
    summary = STATE / "traces" / f"{arguments.workload}-seed{arguments.seed}-untraced.json"
    if arguments.trace:
        values = outcome["per_layer"]
        values["trace.op_p50_s"] = median(outcome["op_seconds"])
        if summary.is_file():
            untraced = json.loads(summary.read_text())["op_p50_s"]
            print(f"tracing overhead: op_p50_s {values['trace.op_p50_s']:.4f}s traced "
                  f"vs {untraced:.4f}s untraced at this seed", file=sys.stderr)
        wanted = declared["per_layer"]
    else:
        summary.write_text(json.dumps(values))
        wanted = declared["end_to_end"]
    p90 = tail_percentile(outcome["op_seconds"], 90)
    print(f"{arguments.workload} seed {arguments.seed}: {tally.passed} ops passed, "
          f"{tally.failed} failed, {tally.timed_out} timed out "
          f"(error_rate {tally.error_rate:.4f}); op_p90_s "
          f"{'n/a (fewer than 100 ops)' if p90 is None else f'{p90:.4f}'}", file=sys.stderr)
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        print(f"  {entry['name']:<40} {metrics[entry['name']]['value']:>14.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed + tally.timed_out == 0 and not outcome["tree_problems"],
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed + tally.timed_out,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
