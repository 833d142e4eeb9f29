"""The typed job spec: fuzzed at every route in, round-tripped, legacy dicts.

Any JSON value handed to :meth:`JobSpec.from_json`, ``POST /v1/jobs`` (JSON
body or CSV-upload query string) or ``POST /v1/plan`` is either accepted or
refused with a 4xx, never a 500.  The HTTP fuzz runs against a paused
server, so accepted jobs queue without running.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from server_harness import ServerHandle

import tests.server.test_pool as pool_tests
import tests.server.test_recovery as recovery_tests
from repro.engine.core import RunPlan
from repro.engine.registry import algorithm_registry, metric_registry
from repro.engine.sources import CsvSource, SyntheticSource
from repro.privacy.spec import privacy_from_dict, privacy_registry
from repro.server.jobspec import JobSpec, SpecError

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
#: Names the parsers look for, so fuzzed fields are often almost valid.
NAMES = st.sampled_from([
    *algorithm_registry.names(), *metric_registry.names(), *privacy_registry.names(),
    "synthetic", "csv", "SAL", "occ", "Age", "Gender", "Disease", "", "1", "no", "off",
])
VALUE = (
    JSON | NAMES | st.integers(-3, 12)
    | st.lists(st.sampled_from(["Age", "Gender", "Disease", "stars", "kl"]), max_size=3)
)
TOP_KEYS = [
    "algorithm", "l", "metrics", "shards", "seed", "include_rows", "request_id", "job_id",
    "chunk_rows", "backend", "rows", "qi", "sa", "columns", "n", "d", "workers", "source",
]
SOURCE_KEYS = ["kind", "path", "qi", "sa", "dataset", "n", "seed", "dimension"]
PRIVACY = JSON | st.dictionaries(
    st.sampled_from(["kind", "l", "c", "k", "alpha", "t", "zz"]), VALUE, max_size=3
)
VALID = st.fixed_dictionaries(
    {
        "l": st.integers(2, 9),
        "source": st.fixed_dictionaries(
            {"kind": st.just("synthetic")},
            optional={
                "dataset": st.sampled_from(["SAL", "occ"]),
                "n": st.integers(1, 10**6),
                "seed": st.integers(0, 2**32),
                "dimension": st.none() | st.integers(1, 5),
            },
        ) | st.fixed_dictionaries({
            "kind": st.just("csv"),
            "path": st.text(max_size=8),
            "qi": st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, unique=True),
            "sa": st.just("S"),
        }),
    },
    optional={
        "algorithm": st.sampled_from(algorithm_registry.names()),
        "privacy": st.sampled_from([
            {"kind": "frequency-l", "l": 3}, {"kind": "entropy-l", "l": 2.5},
            {"kind": "recursive-cl", "c": 2.0, "l": 3}, {"kind": "k-anonymity", "k": 4},
            {"kind": "alpha-k", "alpha": 0.5, "k": 2},
        ]),
        "metrics": st.lists(st.sampled_from(metric_registry.names()), max_size=2),
        "shards": st.none() | st.integers(1, 8),
        "seed": st.integers(-5, 10**6),
        "include_rows": st.booleans(),
        "request_id": st.text(max_size=8),
        "job_id": st.text(max_size=8),
    },
)
#: Inline-rows submissions (the HTTP layer's third shape).
ROWS = st.fixed_dictionaries(
    {
        "l": st.just(2),
        "qi": st.just(["Age", "Gender"]),
        "sa": st.just("Disease"),
        "rows": st.lists(
            st.dictionaries(NAMES, VALUE, max_size=4) | st.lists(VALUE, max_size=4),
            max_size=3,
        ),
    },
    optional={"columns": VALUE | st.just(["Age", "Gender", "Disease"])},
)


@st.composite
def near_valid(draw) -> dict:
    """A valid spec or rows submission with a few fields replaced by noise."""
    payload = {**draw(VALID | ROWS)}
    payload.update(draw(st.dictionaries(st.sampled_from(TOP_KEYS), VALUE, max_size=2)))
    if draw(st.booleans()):
        payload["privacy"] = draw(PRIVACY)
    if isinstance(payload.get("source"), dict):
        noise = draw(st.dictionaries(st.sampled_from(SOURCE_KEYS), VALUE, max_size=2))
        payload["source"] = {**payload["source"], **noise}
    return payload


PAYLOAD = JSON | st.dictionaries(st.sampled_from(TOP_KEYS), VALUE) | near_valid()
QUERY = st.dictionaries(
    st.sampled_from([
        "l", "qi", "sa", "algorithm", "metrics", "shards", "seed", "include_rows",
        "privacy", "chunk_rows", "job_id",
    ]),
    st.text(max_size=8) | NAMES | st.sampled_from([
        "2", "-1", "Age,Gender", '{"kind": "entropy-l", "l": 2}', '{"kind": 5}', "[1]",
    ]),
    max_size=6,
)


class TestFromJson:
    @FUZZ
    @given(PAYLOAD)
    def test_any_json_value_parses_or_raises_spec_error(self, payload):
        try:
            spec = JobSpec.from_json(payload)
        except SpecError:
            return
        assert JobSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    @FUZZ
    @given(VALID)
    def test_to_json_round_trips(self, payload):
        spec = JobSpec.from_json(payload)
        assert JobSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec

    def test_source_defaults_come_from_the_source_dataclass(self):
        spec = JobSpec.from_json({"l": 2, "source": {"kind": "synthetic"}})
        assert spec.plan.source == SyntheticSource()
        assert spec.plan.algorithm == RunPlan.algorithm
        assert spec.plan.seed == RunPlan.seed


def _legacy_plan(spec: dict) -> RunPlan:
    """The plan the pool worker built from a spec dict before the typed spec."""
    source = spec["source"]
    if source["kind"] == "csv":
        built = CsvSource(source["path"], tuple(source["qi"]), source["sa"])
    else:
        built = SyntheticSource(
            source["dataset"], source["n"], source["seed"], dimension=source["dimension"]
        )
    privacy = spec.get("privacy")
    return RunPlan(
        source=built,
        algorithm=spec["algorithm"],
        l=spec["l"],
        privacy=privacy_from_dict(privacy) if privacy else None,
        shards=spec.get("shards"),
        seed=spec.get("seed", 0),
        metrics=tuple(spec.get("metrics", ())),
        request_id=spec.get("request_id", ""),
    )


#: The dict perfbench's serving workload hands ``execute_job`` directly.
PERFBENCH_SPEC = {
    "algorithm": "TP+", "l": 4, "metrics": [], "shards": None,
    "backend": None, "seed": 0, "chunk_rows": None, "include_rows": True,
    "source": {"kind": "csv", "path": "/data/in.csv", "qi": ["Age", "Gender"],
               "sa": "Income"},
    "result_artifact": True, "job_id": "replay-small-0",
}


@pytest.mark.parametrize(
    "legacy",
    [
        recovery_tests._queued_spec(),
        {**recovery_tests._queued_spec(seed=13), "backend": "reference"},
        pool_tests.TestExecuteJob()._spec(),
        pool_tests.TestExecuteJob()._spec(include_rows=False, result_artifact=False),
        PERFBENCH_SPEC,
    ],
    ids=["recovery", "recovery-backend", "pool", "pool-no-rows", "perfbench"],
)
def test_legacy_spec_dicts_parse_to_the_same_plan(legacy):
    spec = JobSpec.from_json(legacy)
    old = _legacy_plan(legacy)
    # Without a privacy object the old worker left ``privacy`` unset; the
    # engine resolved that to the same frequency spec the parser now sets.
    assert spec.plan.resolved_privacy() == old.resolved_privacy()
    assert replace(spec.plan, privacy=None) == replace(old, privacy=None)
    assert spec.include_rows == legacy["include_rows"]
    assert spec.job_id == legacy.get("job_id", "")


# ------------------------------------------------------------------ HTTP fuzz


@pytest.fixture(scope="module")
def paused_server(tmp_path_factory):
    handle = ServerHandle(
        paused=True, workspace=tmp_path_factory.mktemp("fuzz-ws"), workers=1,
        queue_cap=10_000,
    )
    yield handle
    handle.stop()


def _status(handle, path: str, body: bytes, content_type: str) -> int:
    request = urllib.request.Request(
        handle.base_url + path, data=body, method="POST",
        headers={"Content-Type": content_type},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.read()
        return error.code


@FUZZ
@given(payload=PAYLOAD)
def test_json_submissions_never_get_a_500(paused_server, payload):
    body = json.dumps(payload).encode()
    for path in ("/v1/jobs", "/v1/plan"):
        status = _status(paused_server, path, body, "application/json")
        assert 200 <= status < 500, (path, status)


#: Header lines of an upload: valid, near valid (a bare ``\r`` ends a line
#: for the ingest), or arbitrary text.
HEADER = st.sampled_from([
    "Age,Gender,Disease", "Age,Gender\rX,Disease", "Age,Gender,Disease\r30,M,flu",
    '"Age,Gender', "Age,Gender,\r", "",
]) | st.text(max_size=24)


@FUZZ
@given(query=QUERY, header=HEADER)
@example(query={"qi": "Age,Gender", "sa": "Disease", "l": "2"}, header="Age,Gender\rX,Disease")
def test_csv_upload_query_strings_never_get_a_500(paused_server, query, header):
    path = "/v1/jobs?" + urllib.parse.urlencode(query)
    body = header.encode("utf-8", "replace") + b"\n30,M,flu\n"
    status = _status(paused_server, path, body, "text/csv")
    assert 200 <= status < 500, status
