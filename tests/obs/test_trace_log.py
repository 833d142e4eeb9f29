"""Unit tests for the trace store and the JSON-lines log formatter."""

from __future__ import annotations

import json
import logging

import pytest

from repro.obs.log import JsonLogFormatter, configure_logging
from repro.obs.trace import Span, TraceStore, grafted_problems, new_request_id


class TestRequestId:
    def test_ids_are_hex_and_unique(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(len(value) == 32 and int(value, 16) >= 0 for value in ids)


class TestTraceStore:
    def test_begin_add_get(self):
        store = TraceStore()
        store.begin("job-1", "rid-1")
        store.add("job-1", Span("submit", start=10.0, seconds=0.5))
        store.add(
            "job-1",
            Span("engine:load", seconds=0.1, parent="attempt-1"),
        )
        trace = store.get("job-1")
        assert trace["request_id"] == "rid-1"
        names = [span["name"] for span in trace["spans"]]
        assert names == ["submit", "engine:load"]
        assert trace["spans"][1]["parent"] == "attempt-1"

    @staticmethod
    def _tree() -> Span:
        run = Span("run", start=1.0, seconds=4.0)
        for offset, name in ((0.5, "encode"), (2.0, "encode")):
            stage = Span(name, start=1.0 + offset, seconds=1.0, parent="run")
            stage.children.append(Span("sort", start=stage.start, seconds=0.5, parent=name))
            run.children.append(stage)
        return run

    def test_add_tree_flattens_under_the_attempt(self):
        store = TraceStore()
        store.begin("job-1", "rid-1")
        store.add("job-1", Span("attempt-1", start=0.0, seconds=10.0))
        store.add_tree("job-1", self._tree(), parent="attempt-1", prefix="engine:")
        spans = store.get("job-1")["spans"]
        assert [(span["name"], span["parent"]) for span in spans] == [
            ("attempt-1", None),
            ("engine:run", "attempt-1"),
            ("engine:encode", "engine:run"),
            ("engine:sort", "engine:encode"),
            ("engine:encode#2", "engine:run"),
            ("engine:sort#2", "engine:encode#2"),
        ]
        assert spans[4]["start"] == 3.0 and spans[4]["seconds"] == 1.0
        assert grafted_problems(spans, "attempt-1", "engine:") == []

    def test_grafted_problems_flags_broken_shapes(self):
        store = TraceStore()
        store.begin("j", "r")
        store.add("j", Span("attempt-1", start=0.0, seconds=3.0))
        store.add_tree("j", self._tree(), parent="attempt-1", prefix="engine:")
        spans = store.get("j")["spans"]
        # The engine root (1s..5s) overruns its 3s attempt.
        assert grafted_problems(spans, "attempt-1", "engine:") == [
            "engine:run does not lie within attempt-1"
        ]
        assert grafted_problems(spans, "attempt-2", "engine:") != []
        spans[0]["seconds"] = 10.0
        orphan = dict(spans[2], parent="attempt-1")
        assert grafted_problems(spans[:2] + [orphan], "attempt-1", "engine:") == [
            "2 engine:* roots under 'attempt-1', expected 1"
        ]
        dangling = dict(spans[3], parent="engine:gone")
        assert grafted_problems(spans[:3] + [dangling], "attempt-1", "engine:") == [
            "engine:sort's parent chain does not reach engine:run"
        ]

    def test_marks_time_later_spans(self):
        store = TraceStore()
        store.begin("j", "r")
        store.mark("j", "queued", when=100.0)
        assert store.mark_at("j", "queued") == 100.0
        assert store.mark_at("j", "missing") is None
        assert store.mark_at("ghost", "queued") is None

    def test_unknown_job_is_none_and_adds_are_noops(self):
        store = TraceStore()
        assert store.get("nope") is None
        store.add("nope", Span("x"))  # silently ignored
        store.mark("nope", "queued")
        assert store.get("nope") is None

    def test_capacity_evicts_oldest(self):
        store = TraceStore(capacity=2)
        for index in range(3):
            store.begin(f"job-{index}", f"rid-{index}")
        assert store.get("job-0") is None
        assert store.get("job-1") is not None
        assert store.get("job-2") is not None
        assert len(store) == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestJsonLogFormatter:
    def _format(self, level=logging.WARNING, message="boom", **extra) -> dict:
        record = logging.LogRecord(
            name="repro.test",
            level=level,
            pathname=__file__,
            lineno=1,
            msg=message,
            args=(),
            exc_info=None,
        )
        for key, value in extra.items():
            setattr(record, key, value)
        return json.loads(JsonLogFormatter().format(record))

    def test_base_fields(self):
        entry = self._format()
        assert entry["level"] == "warning"
        assert entry["logger"] == "repro.test"
        assert entry["message"] == "boom"
        assert entry["ts"].endswith("Z")

    def test_context_fields_lifted_from_extra(self):
        entry = self._format(
            request_id="rid", job_id="j1", route="/v1/jobs", status=503
        )
        assert entry["request_id"] == "rid"
        assert entry["job_id"] == "j1"
        assert entry["route"] == "/v1/jobs"
        assert entry["status"] == 503
        assert "outcome" not in entry  # absent context stays absent

    def test_exception_rendered(self):
        try:
            raise RuntimeError("kaput")
        except RuntimeError:
            import sys

            record = logging.LogRecord(
                "repro.test", logging.ERROR, __file__, 1, "failed", (), sys.exc_info()
            )
        entry = json.loads(JsonLogFormatter().format(record))
        assert "RuntimeError: kaput" in entry["exception"]


class TestConfigureLogging:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            configure_logging("xml")

    def test_json_format_installs_formatter(self):
        try:
            configure_logging("json")
            handlers = logging.getLogger().handlers
            assert any(
                isinstance(handler.formatter, JsonLogFormatter)
                for handler in handlers
            )
        finally:
            configure_logging("text")
            logging.getLogger().handlers.clear()
