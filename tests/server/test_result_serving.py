"""Zero-copy result artifacts through the serving stack.

The contract under test: every row-carrying job publishes through its
workspace result artifact, the served CSV and JSON rows equal the row-level
rendering oracle byte for byte (suppression runs, store hits and sub-domain
baselines alike), repeat fetches come from the render cache instead of
re-rendering, a corrupt artifact answers 404, and the on-disk artifacts are
reclaimed with their resident entries.
"""

from __future__ import annotations

import pytest

from repro.client import Client, ClientError
from repro.engine import Engine, ResultCache, RunPlan
from repro.engine.columnstore import RESULT_GROUPS_FILE
from repro.server.jobspec import build_source
from tests.render_oracle import legacy_csv, legacy_rows
from tests.server.server_harness import ServerHandle
from tests.server.test_telemetry import parse_exposition, sample

SOURCE = {"kind": "synthetic", "dataset": "SAL", "n": 400, "dimension": 3}


def _oracle(algorithm="TP+", l=4):
    """The same deterministic job run in-process."""
    report = Engine(cache=ResultCache()).run(
        RunPlan(source=build_source(dict(SOURCE)), algorithm=algorithm, l=l)
    )
    return report.generalized


def _assert_served_like_oracle(client, payload, job_id, generalized):
    assert payload["result_artifact"]["rows"] == SOURCE["n"]
    assert client.result_csv(job_id).encode("utf-8") == legacy_csv(generalized)
    result = client.result(job_id)
    header, rows = legacy_rows(generalized)
    assert result["header"] == header
    assert result["rows"] == rows
    # /metrics is the payload without the table: no rows, no header.
    expected = {key: value for key, value in result.items() if key not in ("rows", "header")}
    assert client.job_metrics(job_id) == expected
    assert expected["stars"] == generalized.star_count()


class TestArtifactServing:
    def test_served_csv_and_json_rows_equal_the_oracle(self, server, client):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        payload = server.server.jobs.result(job_id)
        # The resident worker payload carries the artifact pointer, not the
        # n rendered row lists.
        assert "rows" not in payload and payload["result_artifact"]["bytes"] > 0
        _assert_served_like_oracle(client, payload, job_id, _oracle())

    def test_store_hit_is_served_from_its_artifact(self, server, client):
        client.wait(client.submit(source=dict(SOURCE), l=4))
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        payload = server.server.jobs.result(job_id)
        assert payload["store_hit"]
        _assert_served_like_oracle(client, payload, job_id, _oracle())

    def test_mondrian_subdomains_are_served_from_the_artifact(self, server, client):
        job_id = client.submit(source=dict(SOURCE), l=4, algorithm="Mondrian")
        client.wait(job_id)
        payload = server.server.jobs.result(job_id)
        generalized = _oracle("Mondrian")
        assert generalized.columnar_publish() is None  # explicit sub-domain cells
        _assert_served_like_oracle(client, payload, job_id, generalized)
        assert "{" in client.result_csv(job_id)

    def test_corrupt_artifact_answers_404(self, server, client):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        buffer = server.server.workspace.results_dir / job_id / RESULT_GROUPS_FILE
        buffer.write_bytes(buffer.read_bytes()[:-64])
        with pytest.raises(ClientError) as error:
            client.result_csv(job_id)
        assert error.value.status == 404

    def test_repeat_csv_fetches_render_once(self, client):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        client.result_csv(job_id)
        samples = parse_exposition(client.telemetry_text())
        assert sample(samples, "repro_result_renders_total", format="csv") == 1.0
        assert sample(samples, "repro_result_cache_hits_total", format="csv") == 0.0
        for fetches in (1, 2):
            client.result_csv(job_id)
            samples = parse_exposition(client.telemetry_text())
            assert sample(samples, "repro_result_renders_total", format="csv") == 1.0
            assert (
                sample(samples, "repro_result_cache_hits_total", format="csv")
                == fetches
            )

    def test_artifact_bytes_gauge_tracks_resident_results(self, server, client):
        job_id = client.submit(source=dict(SOURCE), l=4)
        client.wait(job_id)
        info = server.server.jobs.result(job_id)["result_artifact"]
        samples = parse_exposition(client.telemetry_text())
        assert sample(samples, "repro_result_artifact_bytes") == info["bytes"]


class TestArtifactLifecycle:
    def test_eviction_reclaims_the_artifact_directory(self, tmp_path):
        server = ServerHandle(
            workspace=tmp_path / "ws", workers=1, queue_cap=1, max_resident_jobs=1
        )
        try:
            client = Client(server.base_url, retries=5, backoff_seconds=0.05)
            first = client.submit(source=dict(SOURCE), l=4)
            client.wait(first)
            first_dir = server.server.workspace.results_dir / first
            assert first_dir.is_dir()
            # The resident table floor is queue_cap + workers + 1 = 3, so
            # three more terminal jobs push the first one out.
            for _ in range(3):
                client.wait(client.submit(source=dict(SOURCE), l=4))
            assert first not in server.server.jobs
            assert not first_dir.exists()
        finally:
            server.stop()

    def test_startup_clears_stale_artifacts(self, tmp_path):
        workspace = tmp_path / "ws"
        stale = workspace / "results" / "job-9999"
        stale.mkdir(parents=True)
        (stale / "meta.json").write_text("{}")
        server = ServerHandle(workspace=workspace, workers=1, queue_cap=2)
        try:
            # No ledger entry can ever serve job-9999 again: the orphan
            # directory is swept on boot.
            assert not stale.exists()
        finally:
            server.stop()
