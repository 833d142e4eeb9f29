"""The benchmark's traced runs, end to end at 20,000 rows.

A ``--trace 1`` run of ``perfbench/`` does everything an untraced run does,
then replays each op's layers through ``src/`` names that nothing else in
the suite calls: ``run_with_spec``, ``qi_prefix_shards``,
``merge_shard_outputs(..., verify=False)``, ``Table.subset``,
``default_planner().decide(..., backend=None, ...)``,
``per_job_worker_budget``, ``ColumnStore.mmap(...).table()``,
``ResultArtifact.from_generalized`` / ``.save`` / ``.mmap`` /
``.csv_bytes``, ``execute_job`` given the legacy spec keys,
``GeneralizedTable.columnar_publish`` / ``.cell_rows`` / ``.sa_codes``,
``Client.trace``, ``telemetry_text``, ``parse_prometheus_text`` and the
``store_hit`` field of job records.  A renamed name, a changed signature or
a wrong output fails a traced op, so these tests run both in-process
workloads traced and call the serving replay against an in-process server.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.client import Client
from repro.obs.metrics import parse_prometheus_text
from tests.server.server_harness import ServerHandle

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import serving  # noqa: E402 - a perfbench module, importable once its directory is on the path
from recorder import Recorder, tree_problems  # noqa: E402

ROWS = 20_000
SEED = 1
#: Seconds one traced in-process run may take (about 4 s on a 2-core machine).
RUN_TIMEOUT = 300
#: Per-layer metrics each in-process workload must report when traced.
EXPECTED_LAYERS = {
    "csv-roundtrip-1m": {
        "columnstore.convert_s",
        "columnstore.open_s",
        "planner.decide_s",
        "grouping.build_s",
        "core.anonymize_s.tpplus-l6",
        "privacy.verify_s",
        "sinks.write_s",
        "engine.unattributed_s",
    },
    "store-sweep-1m": {
        "core.anonymize_s.tp-l4",
        "core.anonymize_s.tpplus-l8",
        "core.anonymize_s.tp-l10",
        "core.anonymize_s.tpplus-l6-s2",
        "metrics.kl_s",
        "metrics.ncp_s",
        "metrics.stars_s",
        "sharding.split_s",
        "sharding.merge_s",
    },
}


def _environment() -> dict:
    environment = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    environment["PYTHONPATH"] = str(ROOT / "src")
    return environment


def _is_wall_clock_rule(problem: str) -> bool:
    # The root span misses wall time by a fixed ~0.2 s of interpreter start-up
    # and teardown: 1% of a 10^6-row run, but far more of a 20k-row one.
    return problem.startswith("root ") and problem.endswith("wall time")


@pytest.fixture(scope="module")
def bench_input(tmp_path_factory) -> Path:
    cache = tmp_path_factory.mktemp("bench-cache")
    subprocess.run(
        [sys.executable, str(PERFBENCH / "inputs.py"), "--seed", str(SEED),
         "--rows", str(ROWS), "--cache", str(cache)],
        check=True, timeout=RUN_TIMEOUT, env=_environment(),
    )
    return cache / f"sal-seed{SEED}-n{ROWS}"


@pytest.mark.parametrize("workload", sorted(EXPECTED_LAYERS))
def test_traced_inprocess_run_passes_every_op(workload, bench_input, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "inproc.py"), "--workload", workload,
         "--input", str(bench_input), "--work", str(work),
         "--trace-file", str(tmp_path / "trace.json"), "--seed", str(SEED),
         "--cycles", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT, env=_environment(),
    )
    assert result.returncode == 0, result.stderr[-4000:]
    events = [json.loads(line) for line in result.stdout.splitlines()]
    starts = [event["op"] for event in events if event["event"] == "op_start"]
    ends = [event for event in events if event["event"] == "op_end"]
    assert starts and [event["op"] for event in ends] == starts
    failed = [event for event in ends if not event["ok"]]
    assert failed == [], result.stderr[-4000:]
    (done,) = [event for event in events if event["event"] == "done"]
    assert [p for p in done["tree_problems"] if not _is_wall_clock_rule(p)] == []
    assert EXPECTED_LAYERS[workload] <= set(done["per_layer"])


def test_serving_replay_and_layers(tmp_path, monkeypatch):
    """``serving.replay`` and ``serve_layers`` on one client's cycle of jobs,
    served in-process, with the 10^5-row job shrunk to 3,000 rows."""
    monkeypatch.setattr(serving, "BIG", ("source-100k", 3_000, 6))
    plans = [serving.plan_jobs(SEED, 0, 1)]
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    inputs = serving.Inputs(SEED, plans, data_dir)
    handle = ServerHandle(workspace=tmp_path / "ws", workers=1, queue_cap=16, data_dir=data_dir)
    rec = Recorder()
    try:
        client = Client(handle.base_url, client_id="perfbench-contract")
        with rec.span("run"):
            outcomes = [
                serving.run_job(client, job, inputs, rec, deadline=60.0) for job in plans[0]
            ]
            assert [outcome.error for outcome in outcomes] == [""] * len(outcomes)
            for outcome in outcomes:
                stars = serving.check_csv(
                    outcome.text, inputs.metas[outcome.job.key], outcome.job.l
                )
                assert outcome.record["stars"] == stars
            server_spans = {
                outcome.job_id: client.trace(outcome.job_id)["spans"] for outcome in outcomes
            }
            telemetry = parse_prometheus_text(client.telemetry_text())
            with rec.span("replay"):
                serving.replay(rec, plans, inputs, tmp_path)
    finally:
        handle.stop()
    assert tree_problems(rec.root) == []
    values = serving.serve_layers(rec, outcomes, server_spans, telemetry)
    assert values["store.hit_ratio"] > 0  # position 2 of every cycle repeats an input
    for name in (
        "pool.queue_wait_s",
        "pool.attempt_s.upload-5k",
        "pool.attempt_s.source-100k",
        "pool.execute_job_s.upload-5k",
        "pool.execute_job_s.source-100k",
        "sources.csv_load_s",
        "core.anonymize_s.source-100k",
        "artifact.save_s",
        "artifact.render_s",
        "http.submit_s",
        "http.result_csv_s",
    ):
        assert values[name] > 0, name
    assert values["artifact.bytes"] > 0
    assert all(math.isfinite(value) for value in values.values())
