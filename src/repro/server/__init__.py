"""Anonymization-as-a-service: the async HTTP subsystem.

``repro.server`` turns the planner/engine/store stack into a long-lived
network service — stdlib only, no third-party web framework:

* :mod:`repro.server.protocol` — minimal HTTP/1.1 framing over asyncio
  streams (request parsing, body caps, JSON/CSV responses, ``Retry-After``);
* :mod:`repro.server.jobspec` — the typed job spec every route in parses once;
* :mod:`repro.server.jobs` — the job table, the one writer of job state
  (resident index, ledger appends, per-transition counters, logs, spans);
* :mod:`repro.server.pool` — the bounded async job queue drained by a
  process-worker pool; jobs run through a fresh store-backed engine, so
  repeated identical submissions are served from the persistent
  :class:`~repro.service.store.RunStore`;
* :mod:`repro.server.ratelimit` — per-client token buckets behind the
  ``429 + Retry-After`` backpressure contract;
* :mod:`repro.server.app` — the :class:`AnonymizationServer` routing table
  and handlers (``/v1/jobs`` lifecycle, registry introspection, planner
  explanations, health).

Serving is **at-least-once**: worker deaths and per-job timeouts re-enqueue
the attempt with exponential backoff (quarantining poison jobs after their
attempt budget), and a restarted server replays every non-terminal ledger
job before accepting traffic.

Start one from the CLI (``ldiversity serve --port 8350 --workers 4``) or
programmatically::

    import asyncio
    from repro.server import AnonymizationServer

    async def main():
        server = AnonymizationServer(workspace="/tmp/ws", workers=4)
        host, port = await server.start("127.0.0.1", 0)
        print(f"http://{host}:{port}/v1/health")
        await server.serve_forever()

    asyncio.run(main())

The matching client SDK lives in :mod:`repro.client`.
"""

from repro.server.app import AnonymizationServer
from repro.server.jobspec import build_source
from repro.server.pool import QueueFullError, WorkerPool, execute_job
from repro.server.protocol import HttpError, Request
from repro.server.ratelimit import RateLimiter

__all__ = [
    "AnonymizationServer",
    "HttpError",
    "QueueFullError",
    "RateLimiter",
    "Request",
    "WorkerPool",
    "build_source",
    "execute_job",
]
