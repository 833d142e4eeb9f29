"""Python SDK for the anonymization server (:mod:`repro.server`).

A thin, dependency-free HTTP client over :mod:`urllib.request` implementing
the server's citizenship contract:

* **retry with backoff and full jitter** — ``429``/``503`` responses are
  retried after the server's ``Retry-After`` (falling back to capped
  exponential backoff), with a uniform random jitter spread over the current
  backoff step so N clients rejected together do not retry together (the
  classic thundering-herd failure of deterministic schedules); connection
  refusals retry the same way, which also makes
  :meth:`Client.wait_until_ready` a one-liner for boot races.  The jitter
  source is seedable (``jitter_seed``) so tests stay deterministic;
* **job lifecycle** — :meth:`Client.submit` (inline rows, CSV text/file, or
  a synthetic spec), :meth:`Client.wait` (poll until terminal),
  :meth:`Client.result` / :meth:`Client.result_csv`, :meth:`Client.cancel`;
* **introspection** — :meth:`Client.health`, :meth:`Client.algorithms`,
  :meth:`Client.metrics`, :meth:`Client.privacy_models`, :meth:`Client.plan`.

Submissions accept ``privacy={"kind": "entropy-l", "l": 3}`` (or a
:class:`~repro.privacy.spec.PrivacySpec`) to target any registered privacy
model; plain ``l=`` keeps meaning frequency l-diversity.

Example::

    from repro.client import Client

    client = Client("http://127.0.0.1:8350", client_id="analytics")
    job_id = client.submit(rows=rows, qi=["Age", "Zip"], sa="Disease", l=4)
    record = client.wait(job_id)
    assert record["status"] == "done"
    table = client.result(job_id)          # {"header": [...], "rows": [...]}
"""

from __future__ import annotations

import http.client
import json
import logging
import random
import time
import urllib.error
import urllib.request
from typing import Callable

from repro.errors import ReproError
from repro.obs.trace import new_request_id

__all__ = ["BackpressureError", "Client", "ClientError", "JobFailedError"]

_LOG = logging.getLogger("repro.client")

#: Statuses after which a job will never change again.
TERMINAL_STATUSES = ("done", "failed", "cancelled")


class ClientError(ReproError):
    """An HTTP error response from the server (after retries, if any)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class BackpressureError(ClientError):
    """The server kept answering 429/503 until the retry budget ran out."""


class JobFailedError(ReproError):
    """A waited-on job reached a terminal state other than ``done``."""

    def __init__(self, record: dict) -> None:
        super().__init__(
            f"job {record.get('id')} {record.get('status')}: {record.get('error', '')}"
        )
        self.record = record


class Client:
    """HTTP client for one anonymization server."""

    def __init__(
        self,
        base_url: str,
        client_id: str | None = None,
        timeout: float = 30.0,
        retries: int = 6,
        backoff_seconds: float = 0.1,
        max_backoff_seconds: float = 5.0,
        max_retry_after_seconds: float = 60.0,
        sleep: Callable[[float], None] = time.sleep,
        jitter_seed: int | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self.max_retry_after_seconds = max_retry_after_seconds
        self._sleep = sleep
        #: Private PRNG for retry jitter — seeded for deterministic tests,
        #: and never the process-global `random` so library users' seeding
        #: is not disturbed.
        self._jitter = random.Random(jitter_seed)
        #: 429/503 responses absorbed by retries (useful in load tests).
        self.backpressure_events = 0
        #: The ``X-Request-Id`` of the most recent exchange — the join key
        #: for server logs and ``GET /v1/jobs/{id}/trace``.
        self.last_request_id: str | None = None

    # ---------------------------------------------------------------- plumbing

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
        retry: bool = True,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange with retry-on-backpressure; returns (status, headers, body).

        A request id is minted once per logical exchange and re-sent on every
        retry of it — the id identifies the *work*, so the server can
        correlate a client's whole backoff episode into one story.  Give-ups
        are logged and raised **with their final cause chained**: the last
        429/503 ``HTTPError`` or connection failure rides along as
        ``__cause__`` instead of being discarded.
        """
        url = self.base_url + path
        request_id = new_request_id()
        self.last_request_id = request_id
        headers = {"X-Request-Id": request_id}
        if body is not None:
            headers["Content-Type"] = content_type
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        attempts = self.retries if retry else 0
        delay = self.backoff_seconds
        for attempt in range(attempts + 1):
            request = urllib.request.Request(url, data=body, headers=headers, method=method)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return response.status, dict(response.headers), response.read()
            except urllib.error.HTTPError as error:
                payload = error.read()
                if error.code in (429, 503):
                    if attempt < attempts:
                        self.backpressure_events += 1
                        wait = self._jittered_wait(
                            delay, self._retry_after(dict(error.headers))
                        )
                        delay = min(delay * 2, self.max_backoff_seconds)
                        self._sleep(wait)
                        continue
                    if attempts:  # budget spent on backpressure alone
                        _LOG.warning(
                            "giving up on %s %s after %d attempts "
                            "(HTTP %d, request %s)",
                            method,
                            path,
                            attempt + 1,
                            error.code,
                            request_id,
                            extra={
                                "request_id": request_id,
                                "status": error.code,
                                "attempts": attempt + 1,
                            },
                        )
                        raise BackpressureError(
                            error.code,
                            f"{self._message(payload)} "
                            f"(gave up after {attempt + 1} attempts, "
                            f"request {request_id})",
                        ) from error
                raise ClientError(error.code, self._message(payload)) from None
            except (OSError, http.client.HTTPException) as error:
                # URLError covers refused connections; a connection that dies
                # *mid-exchange* (server killed between request and response)
                # escapes urlopen as a raw ConnectionResetError or
                # http.client.RemoteDisconnected instead.  All of them mean
                # the same thing here: the server is unreachable right now.
                if attempt < attempts:
                    self._sleep(self._jittered_wait(delay, None))
                    delay = min(delay * 2, self.max_backoff_seconds)
                    continue
                reason = getattr(error, "reason", None) or error
                if attempts:
                    _LOG.warning(
                        "giving up on %s %s after %d attempts (%s, request %s)",
                        method,
                        path,
                        attempt + 1,
                        reason,
                        request_id,
                        extra={
                            "request_id": request_id,
                            "attempts": attempt + 1,
                            "error": str(reason),
                        },
                    )
                raise ClientError(
                    0, f"connection failed: {reason} (request {request_id})"
                ) from error
        raise AssertionError("unreachable: the final attempt returns or raises")

    def _jittered_wait(self, delay: float, retry_after: float | None) -> float:
        """Full jitter over the current backoff step (AWS-style).

        ``uniform(0, delay)`` alone when the client is backing off on its own
        schedule; *added to* the server's ``Retry-After`` ask when one was
        given — jittering below the ask would deliberately retry before the
        server said a slot could exist, undercutting the backpressure
        contract, so the ask is a floor and the jitter only spreads clients
        out above it.
        """
        jitter = self._jitter.uniform(0.0, delay)
        if retry_after is None:
            return jitter
        return retry_after + jitter

    def _retry_after(self, headers: dict[str, str]) -> float | None:
        """The server's ``Retry-After`` (sanity-capped), else ``None``.

        ``max_backoff_seconds`` only bounds the client's *own* exponential
        schedule — clamping the server's ask to it would deliberately retry
        early and undercut the backpressure contract.  The separate (much
        larger) ``max_retry_after_seconds`` cap just guards against a
        misconfigured server parking clients forever.
        """
        for name, value in headers.items():
            if name.lower() == "retry-after":
                try:
                    return min(max(float(value), 0.0), self.max_retry_after_seconds)
                except ValueError:
                    break
        return None

    @staticmethod
    def _message(payload: bytes) -> str:
        try:
            return json.loads(payload.decode("utf-8")).get("error", payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return payload.decode("utf-8", "replace")

    def _json(self, method: str, path: str, payload: dict | None = None, retry: bool = True) -> dict:
        body = None
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        _status, _headers, raw = self._request(method, path, body=body, retry=retry)
        return json.loads(raw.decode("utf-8")) if raw else {}

    # ------------------------------------------------------------ introspection

    def health(self) -> dict:
        return self._json("GET", "/v1/health")

    def wait_until_ready(self, timeout: float = 10.0, poll_seconds: float = 0.1) -> dict:
        """Poll ``/v1/health`` until the server answers (boot race helper)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self._json("GET", "/v1/health", retry=False)
            except ClientError as error:
                if error.status != 0 or time.monotonic() >= deadline:
                    raise
            self._sleep(poll_seconds)

    def algorithms(self) -> list[dict]:
        return self._json("GET", "/v1/algorithms")["algorithms"]

    def metrics(self) -> list[dict]:
        return self._json("GET", "/v1/metrics")["metrics"]

    def telemetry_text(self) -> str:
        """The server's operational telemetry (Prometheus text format)."""
        _status, _headers, raw = self._request("GET", "/v1/telemetry")
        return raw.decode("utf-8")

    def privacy_models(self) -> list[dict]:
        """The server's registered privacy models with their parameter schemas."""
        return self._json("GET", "/v1/privacy")["privacy_models"]

    def plan(self, n: int, l: int, algorithm: str = "TP+", d: int = 1, **fields) -> dict:
        payload = {"n": n, "l": l, "algorithm": algorithm, "d": d, **fields}
        return self._json("POST", "/v1/plan", payload)

    # ---------------------------------------------------------------- lifecycle

    def submit(
        self,
        l: int | None = None,
        algorithm: str = "TP+",
        rows: list | None = None,
        columns: list[str] | None = None,
        qi: list[str] | None = None,
        sa: str | None = None,
        source: dict | None = None,
        csv_text: str | None = None,
        csv_path: str | None = None,
        metrics: list[str] | None = None,
        shards: int | None = None,
        seed: int = 0,
        include_rows: bool = True,
        privacy: dict | object | None = None,
    ) -> str:
        """Submit one job (inline rows, a CSV body, or a source spec); returns its id.

        Exactly one of ``rows``, ``source``, ``csv_text`` or ``csv_path`` must
        be given.  ``rows`` may be dicts (keyed by column name) or lists with
        ``columns``; CSV submissions upload the text with ``qi``/``sa``/``l``
        as query parameters.  ``privacy`` selects a privacy model — a
        :class:`~repro.privacy.spec.PrivacySpec` or its dict encoding (e.g.
        ``{"kind": "entropy-l", "l": 3}``, see ``GET /v1/privacy``); without
        one, ``l`` is required and means frequency l-diversity, the
        historical contract.  ``include_rows=False`` is for metrics-only
        workloads: the server skips building/keeping the published table and
        only :meth:`job_metrics` is available afterwards.
        """
        provided = [x is not None for x in (rows, source, csv_text, csv_path)]
        if sum(provided) != 1:
            raise ValueError("provide exactly one of rows / source / csv_text / csv_path")
        if l is None and privacy is None:
            raise ValueError("provide l (frequency l-diversity) or privacy")
        if privacy is not None and hasattr(privacy, "to_dict"):
            privacy = privacy.to_dict()
        if csv_path is not None:
            with open(csv_path) as handle:
                csv_text = handle.read()
        if csv_text is not None:
            if not qi or not sa:
                raise ValueError("csv submissions require qi and sa")
            from urllib.parse import urlencode

            params: dict[str, str] = {
                "qi": ",".join(qi),
                "sa": sa,
                "algorithm": algorithm,
                "seed": str(seed),
            }
            if l is not None:
                params["l"] = str(l)
            if privacy is not None:
                params["privacy"] = json.dumps(privacy, separators=(",", ":"))
            if metrics:
                params["metrics"] = ",".join(metrics)
            if shards is not None:
                params["shards"] = str(shards)
            if not include_rows:
                params["include_rows"] = "false"
            _status, _headers, raw = self._request(
                "POST",
                "/v1/jobs?" + urlencode(params),
                body=csv_text.encode("utf-8"),
                content_type="text/csv",
            )
            return json.loads(raw.decode("utf-8"))["id"]
        payload: dict = {"algorithm": algorithm, "seed": seed}
        if l is not None:
            payload["l"] = l
        if privacy is not None:
            payload["privacy"] = privacy
        if not include_rows:
            payload["include_rows"] = False
        if metrics:
            payload["metrics"] = list(metrics)
        if shards is not None:
            payload["shards"] = shards
        if rows is not None:
            payload["rows"] = rows
            payload["qi"] = list(qi or ())
            payload["sa"] = sa
            if columns is not None:
                payload["columns"] = list(columns)
        else:
            payload["source"] = source
        return self._json("POST", "/v1/jobs", payload)["id"]

    def status(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._json("GET", "/v1/jobs")["jobs"]

    def wait(self, job_id: str, timeout: float = 120.0, poll_seconds: float = 0.05) -> dict:
        """Poll until the job reaches a terminal status; returns its record.

        Raises :class:`JobFailedError` when that status is not ``done`` and
        :class:`TimeoutError` when the deadline passes first.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record["status"] in TERMINAL_STATUSES:
                if record["status"] != "done":
                    raise JobFailedError(record)
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {record['status']} after {timeout}s")
            self._sleep(poll_seconds)

    def result(self, job_id: str) -> dict:
        """The JSON result payload of a done job (header, rows, metrics, store hit)."""
        return self._json("GET", f"/v1/jobs/{job_id}/result")

    def result_csv(self, job_id: str) -> str:
        """The published table of a done job as CSV text."""
        _status, _headers, raw = self._request(
            "GET", f"/v1/jobs/{job_id}/result?format=csv"
        )
        return raw.decode("utf-8")

    def job_metrics(self, job_id: str) -> dict:
        return self._json("GET", f"/v1/jobs/{job_id}/metrics")

    def trace(self, job_id: str) -> dict:
        """The span tree of a recent job (``{"id", "request_id", "spans"}``)."""
        return self._json("GET", f"/v1/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/v1/jobs/{job_id}/cancel", {})

    def submit_and_wait(self, timeout: float = 120.0, **submit_fields) -> tuple[dict, dict]:
        """Submit, wait for ``done``, fetch the result; returns (record, result).

        For ``include_rows=False`` submissions the second element is the
        ``/metrics`` payload instead — the server keeps no table to return.
        """
        job_id = self.submit(**submit_fields)
        record = self.wait(job_id, timeout=timeout)
        if submit_fields.get("include_rows", True):
            return record, self.result(job_id)
        return record, self.job_metrics(job_id)
