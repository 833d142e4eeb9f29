"""Command-line interface.

Sub-commands:

``ldiversity anonymize``
    Anonymize a CSV file with one of the registered algorithms and export
    the published table with a :class:`~repro.engine.sinks.CsvSink`.
    Shards / workers left unspecified are chosen by the
    cost-based planner; runs are memoized in the workspace's persistent
    :class:`~repro.service.store.RunStore`, so repeating an invocation in a
    fresh process replays the stored result (``--no-store`` opts out).
    ``--stream`` switches to the bounded-memory CSV-to-CSV pipeline for
    inputs larger than RAM.
``ldiversity plan``
    Explain what the planner would choose for a workload (and why), without
    running it.
``ldiversity jobs submit / list / show / cancel``
    Run through the job service, which appends an auditable lifecycle record
    of every submission to the workspace ledger; ``cancel`` moves a
    queued/running job (e.g. left behind by a crashed server) to
    ``cancelled``.
``ldiversity serve``
    Boot the asyncio anonymization server (:mod:`repro.server`) on a host /
    port with a bounded worker pool, queue-depth backpressure and optional
    per-client rate limiting.
``ldiversity verify``
    Independently check any published CSV with the streaming verifier (exit
    code 1 on a violation).  ``--privacy`` selects the model — including the
    check-only t-closeness — so files can be audited against entropy /
    recursive (c,l) / (alpha,k) / k-anonymity / t-closeness, not just
    frequency l-diversity.
``ldiversity evaluate``
    Anonymize a CSV file with several algorithms and print the standard
    metrics side by side.
``ldiversity experiment``
    Re-run one of the paper's figures (or the phase-3 frequency census) at a
    chosen scale and print the resulting series.
``ldiversity algorithms`` / ``ldiversity metrics`` / ``ldiversity privacy``
    List the registered algorithms / metrics / privacy models with their
    capability metadata and parameter schemas.

Privacy models (``anonymize``, ``plan``, ``jobs submit``, ``verify``): plain
``--l N`` keeps meaning frequency l-diversity; ``--privacy`` plus the
model's parameter flags requests any registered spec, e.g.::

    ldiversity anonymize ... --privacy entropy-l --l 3
    ldiversity anonymize ... --privacy recursive-cl --c 2 --l 3
    ldiversity verify   ... --privacy t-closeness --t 0.3

Every choice set is derived from a single source of truth — the engine's
registries for algorithms and metrics, the privacy registry for ``--privacy``,
:data:`repro.experiments.figures.FIGURES` for experiments,
:meth:`repro.experiments.config.ExperimentConfig.presets` for scales — so the
help text can never drift from what is implemented.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.engine import (
    CsvSink,
    CsvSource,
    Engine,
    ResultCache,
    RunPlan,
    algorithm_registry,
    metric_registry,
)
from repro.engine.sources import CsvDecoder
from repro.errors import DataSourceError, UnknownEntryError
from repro.experiments import figures
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import format_records, record_from_report, run_suite
from repro.privacy.spec import PrivacySpec, privacy_registry
from repro.text import format_fixed_width

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="ldiversity",
        description="l-diversity anonymization (EDBT 2010 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    anonymize = subparsers.add_parser("anonymize", help="anonymize a CSV file")
    _add_io_arguments(anonymize)
    _add_privacy_arguments(anonymize)
    _add_algorithm_argument(anonymize)
    anonymize.add_argument(
        "--output", default=None, help="write the published table to this CSV file"
    )
    _add_execution_arguments(anonymize)
    _add_workspace_arguments(anonymize)
    anonymize.add_argument(
        "--stream",
        action="store_true",
        help="bounded-memory CSV-to-CSV pipeline (requires --output; rows come "
        "back in QI-sorted shard order, not input order)",
    )
    anonymize.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="with --stream: rows per scan/spill slice (default 50000)",
    )
    anonymize.add_argument(
        "--mmap",
        action="store_true",
        help="run off memory-mapped int32 column buffers: --input may be a "
        "column-store directory, or a CSV which is converted once to a "
        "sibling <input>.colstore directory and reused afterwards",
    )

    plan = subparsers.add_parser(
        "plan", help="explain the planner's execution choice for a workload"
    )
    _add_io_arguments(plan)
    _add_privacy_arguments(plan)
    _add_algorithm_argument(plan)
    _add_execution_arguments(plan)

    jobs = subparsers.add_parser("jobs", help="submit and inspect persistent jobs")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    submit = jobs_sub.add_parser("submit", help="run a job and record it in the ledger")
    _add_io_arguments(submit)
    _add_privacy_arguments(submit)
    _add_algorithm_argument(submit)
    submit.add_argument(
        "--output", default=None, help="write the published table to this CSV file"
    )
    _add_execution_arguments(submit)
    _add_workspace_arguments(submit)
    jobs_list = jobs_sub.add_parser("list", help="list the recorded jobs")
    _add_workspace_arguments(jobs_list)
    show = jobs_sub.add_parser("show", help="show one recorded job in full")
    show.add_argument("job_id", help="job id as printed by `jobs list`")
    _add_workspace_arguments(show)
    cancel = jobs_sub.add_parser("cancel", help="cancel a queued/running job")
    cancel.add_argument("job_id", help="job id as printed by `jobs list`")
    _add_workspace_arguments(cancel)

    verify = subparsers.add_parser(
        "verify",
        help="check a published CSV against a privacy model (streaming)",
    )
    _add_io_arguments(verify)
    _add_privacy_arguments(verify, check_only=True)

    serve = subparsers.add_parser(
        "serve", help="run the asynchronous anonymization HTTP server"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8350, help="bind port (0 = ephemeral, printed on boot)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="process-pool width draining the job queue"
    )
    serve.add_argument(
        "--queue-cap",
        type=int,
        default=16,
        help="queued-job bound; submissions beyond it get 429 + Retry-After",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-client submissions per second (default: unlimited)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        default=None,
        help="per-client burst size (default: max(1, rate))",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="reject request bodies larger than this with 413",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help="directory server-side csv sources may read from; without it, "
        "{'kind': 'csv'} sources are rejected with 403 (clients can still "
        "upload CSV bodies)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds; a timed-out attempt is "
        "killed and retried (default: unlimited)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="attempt budget before a crash-looping job is quarantined "
        "(failed terminally)",
    )
    serve.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        help="base of the exponential backoff between retry attempts, "
        "in seconds",
    )
    serve.add_argument(
        "--no-replay",
        action="store_true",
        help="skip re-enqueueing the ledger's non-terminal jobs at boot "
        "(default: replay them — the crash-recovery contract)",
    )
    serve.add_argument(
        "--log-format",
        choices=["text", "json"],
        default="text",
        help="log output format: human-readable text (default) or one JSON "
        "object per line carrying request/job ids (for log pipelines)",
    )
    _add_workspace_arguments(serve)

    evaluate = subparsers.add_parser("evaluate", help="compare algorithms on a CSV file")
    _add_io_arguments(evaluate)
    evaluate.add_argument(
        "--l", type=int, required=True, help="diversity parameter l (>= 2)"
    )
    evaluate.add_argument(
        "--algorithms",
        default="TP,TP+,Hilbert",
        help="comma-separated list of algorithms (default: TP,TP+,Hilbert)",
    )
    evaluate.add_argument(
        "--kl", action="store_true", help="also compute the KL-divergence utility metric"
    )

    experiment = subparsers.add_parser("experiment", help="re-run one of the paper's figures")
    experiment.add_argument(
        "name",
        choices=sorted(figures.FIGURES) + ["phase3"],
        help="which experiment to run",
    )
    experiment.add_argument("--dataset", choices=["SAL", "OCC"], default="SAL")
    experiment.add_argument(
        "--scale", choices=sorted(ExperimentConfig.presets()), default="smoke"
    )
    experiment.add_argument(
        "--csv", default=None, help="also write the series to this CSV file"
    )

    subparsers.add_parser("algorithms", help="list the registered algorithms")
    subparsers.add_parser("metrics", help="list the registered metrics")
    subparsers.add_parser("privacy", help="list the registered privacy models")
    return parser


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV file with a header row")
    parser.add_argument("--qi", required=True, help="comma-separated quasi-identifier columns")
    parser.add_argument("--sa", required=True, help="sensitive attribute column")


def _add_privacy_arguments(
    parser: argparse.ArgumentParser, check_only: bool = False
) -> None:
    """The privacy-model flags, derived from the privacy registry.

    ``--l`` alone keeps the historical meaning (frequency l-diversity);
    ``--privacy`` selects another registered model, whose parameters come
    from the matching flags below.  ``check_only`` additionally offers the
    models that can be audited but not enforced (t-closeness) — only the
    ``verify`` command sets it.
    """
    names = [
        info.name
        for info in privacy_registry.entries()
        if check_only or info.enforceable
    ]
    parser.add_argument(
        "--privacy",
        choices=sorted(names),
        default="frequency-l",
        help="privacy model to target (default: frequency-l; see "
        "`ldiversity privacy` for parameters)",
    )
    parser.add_argument(
        "--l", type=float, default=None,
        help="diversity parameter l (frequency-l / entropy-l / recursive-cl)",
    )
    parser.add_argument(
        "--c", type=float, default=None, help="recursive-(c,l) multiplier c"
    )
    parser.add_argument(
        "--alpha", type=float, default=None, help="(alpha,k) frequency bound alpha"
    )
    parser.add_argument(
        "--k", type=int, default=None, help="(alpha,k) / k-anonymity group floor k"
    )
    if check_only:
        parser.add_argument(
            "--t", type=float, default=None, help="t-closeness distance threshold t"
        )


def _privacy_spec(arguments: argparse.Namespace) -> PrivacySpec:
    """Build the requested spec from the CLI flags, validated by the registry."""
    info = privacy_registry.get(arguments.privacy)
    supplied = {
        name: value
        for name in ("l", "c", "alpha", "k", "t")
        if (value := getattr(arguments, name, None)) is not None
    }
    params = {}
    for name, schema in info.params_schema.items():
        if name not in supplied:
            raise ValueError(f"--privacy {info.name} requires --{name}")
        value = supplied.pop(name)
        if schema["type"] == "integer":
            if float(value) != int(value):
                raise ValueError(
                    f"--{name} must be an integer for {info.name}, got {value}"
                )
            value = int(value)
        params[name] = value
    if supplied:
        flags = ", ".join(f"--{name}" for name in sorted(supplied))
        raise ValueError(f"{flags} does not apply to --privacy {info.name}")
    return info.cls(**params)


def _add_algorithm_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm",
        choices=sorted(algorithm_registry.names()),
        default="TP+",
        help="anonymization algorithm (default: TP+)",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="split the table into N QI-prefix shards and merge the results "
        "(default: cost-based planner)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width for sharded runs (default: cost-based planner)",
    )


def _add_workspace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workspace",
        default=None,
        help="workspace directory for the persistent run store and job ledger "
        "(default: $REPRO_WORKSPACE or ~/.cache/ldiversity)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not read or write the persistent run store",
    )


def _qi_names(arguments: argparse.Namespace) -> tuple[str, ...]:
    return tuple(name.strip() for name in arguments.qi.split(",") if name.strip())


def _csv_source(arguments: argparse.Namespace) -> CsvSource:
    return CsvSource(arguments.input, _qi_names(arguments), arguments.sa)


def _store_columns(store_dir: str) -> tuple[tuple[str, ...], str] | None:
    """The ``(QI names, SA name)`` a column store holds; ``None`` if unreadable."""
    from repro.engine import ColumnStore

    try:
        schema = ColumnStore.mmap(store_dir).schema
    except DataSourceError:
        return None
    return schema.qi_names, schema.sensitive.name


def _plan_source(arguments: argparse.Namespace):
    """The plan's data source: the CSV, or its column store under ``--mmap``.

    With ``--mmap``, an ``--input`` that is already a column-store directory
    is opened as-is, and must hold the requested ``--qi``/``--sa`` columns.
    A CSV input is converted once to ``<input>.colstore`` (one pass,
    out-of-core) and the store is reused by every later run over the same
    columns; a request for other columns converts it again.
    """
    if not getattr(arguments, "mmap", False):
        return _csv_source(arguments)
    from repro.engine import ColumnStore, ColumnStoreSource

    requested = (_qi_names(arguments), arguments.sa)
    if ColumnStore.is_store_dir(arguments.input):
        stored = _store_columns(arguments.input)
        if stored is not None and stored != requested:
            raise DataSourceError(
                f"{arguments.input} is a column store over --qi {','.join(stored[0])} "
                f"--sa {stored[1]}, not the requested --qi {','.join(requested[0])} "
                f"--sa {requested[1]}"
            )
        return ColumnStoreSource(arguments.input)
    store_dir = arguments.input + ".colstore"
    if not ColumnStore.is_store_dir(store_dir) or _store_columns(store_dir) != requested:
        ColumnStore.convert_csv(arguments.input, store_dir, *requested)
        print(f"column store written to {store_dir}", file=sys.stderr)
    return ColumnStoreSource(store_dir)


def _engine(arguments: argparse.Namespace) -> Engine:
    """An engine that caches through the workspace run store, or not at all
    under ``--no-store``."""
    if getattr(arguments, "no_store", False):
        return Engine()
    from repro.service import Workspace

    store = Workspace(arguments.workspace).run_store()
    return Engine(cache=ResultCache(store=store))


def _run_plan(arguments: argparse.Namespace, spec: PrivacySpec) -> RunPlan:
    return RunPlan(
        source=_plan_source(arguments),
        algorithm=arguments.algorithm,
        l=spec.anonymize_l(),
        privacy=spec,
        shards=arguments.shards,
        workers=arguments.workers,
    )


def _cache_line(report, arguments: argparse.Namespace) -> str:
    if report.store_hit:
        return "served from the persistent run store"
    if getattr(arguments, "no_store", False):
        return "computed (not stored: --no-store)"
    return "computed (result stored for future runs)"


def _command_anonymize(arguments: argparse.Namespace) -> int:
    try:
        spec = _privacy_spec(arguments)
    except (ValueError, UnknownEntryError) as error:
        print(error, file=sys.stderr)
        return 2
    if arguments.stream:
        if arguments.mmap:
            print("--stream and --mmap are mutually exclusive", file=sys.stderr)
            return 2
        return _command_anonymize_stream(arguments, spec)
    if arguments.chunk_rows is not None:
        print("--chunk-rows applies only with --stream", file=sys.stderr)
        return 2
    try:
        plan = _run_plan(arguments, spec)
    except DataSourceError as error:
        print(error, file=sys.stderr)
        return 2
    report = _engine(arguments).run(plan)
    if arguments.output:
        with CsvSink(arguments.output) as sink:
            sink.write_table(report.generalized)
    print(format_records([record_from_report(report, dataset=arguments.input)]))
    if spec.kind != "frequency-l":
        merges = (
            f" ({report.enforcement_merges} groups merged by enforcement)"
            if report.enforcement_merges
            else ""
        )
        print(f"privacy: {spec.describe()} enforced and verified{merges}")
    if len(report.shard_sizes) > 1:
        print(f"sharded over {len(report.shard_sizes)} shards: {list(report.shard_sizes)}")
    if report.decision is not None and arguments.shards is None:
        print(
            f"planner: shards={report.decision.shards} workers={report.decision.workers}"
        )
    print(_cache_line(report, arguments))
    if arguments.output:
        print(f"published table written to {arguments.output}")
    return 0


def _command_anonymize_stream(
    arguments: argparse.Namespace, spec: PrivacySpec
) -> int:
    if not arguments.output:
        print("--stream requires --output", file=sys.stderr)
        return 2
    if arguments.workers is not None and arguments.workers > 1:
        print(
            "note: --stream processes shards sequentially to bound memory; "
            "--workers is ignored",
            file=sys.stderr,
        )
    from repro.service import stream_anonymize

    report = stream_anonymize(
        _csv_source(arguments),
        arguments.output,
        algorithm=arguments.algorithm,
        l=spec.anonymize_l(),
        privacy=spec,
        shards=arguments.shards,
        chunk_rows=arguments.chunk_rows or 50_000,
    )
    print(report.format())
    print(f"published table written to {arguments.output}")
    return 0


def _command_plan(arguments: argparse.Namespace) -> int:
    from repro.service import default_planner

    try:
        spec = _privacy_spec(arguments)
    except (ValueError, UnknownEntryError) as error:
        print(error, file=sys.stderr)
        return 2
    info = algorithm_registry.get(arguments.algorithm)
    qi_names = _qi_names(arguments)
    # One decoding pass that keeps no blocks: the planner needs only n.
    n = sum(map(len, CsvDecoder(arguments.input, qi_names, arguments.sa).batches()))
    d = len(qi_names)
    decision = default_planner().decide(
        info,
        n=n,
        d=d,
        l=spec.anonymize_l(),
        shards=arguments.shards,
        workers=arguments.workers,
        privacy=spec,
    )
    print(
        f"workload: n={n} d={d} l={spec.anonymize_l()} "
        f"privacy={spec.describe()} algorithm={info.name}"
    )
    print(decision.explain())
    return 0


def _job_service(arguments: argparse.Namespace):
    from repro.service import JobService, Workspace

    workspace = Workspace(arguments.workspace)
    if getattr(arguments, "no_store", False):
        # Still record the job in the ledger, but run uncached so nothing is
        # read from or written to the store.
        return JobService(workspace, engine=Engine())
    return JobService(workspace)


def _command_jobs(arguments: argparse.Namespace) -> int:
    if arguments.jobs_command == "submit":
        try:
            spec = _privacy_spec(arguments)
        except (ValueError, UnknownEntryError) as error:
            print(error, file=sys.stderr)
            return 2
        service = _job_service(arguments)
        record, report = service.submit(
            _run_plan(arguments, spec), output=arguments.output or None
        )
        print(format_records([record_from_report(report, dataset=arguments.input)]))
        print(f"job {record.id}: {record.status} ({_cache_line(report, arguments)})")
        if record.output:
            print(f"published table written to {record.output}")
        return 0
    if arguments.jobs_command == "list":
        records = _job_service(arguments).list()
        if not records:
            print("no jobs recorded")
            return 0
        headers = ["job", "status", "algorithm", "l", "n", "stars", "seconds", "served", "input"]
        print(format_fixed_width(headers, [list(record.summary_row()) for record in records]))
        return 0
    if arguments.jobs_command == "show":
        import dataclasses

        try:
            record = _job_service(arguments).get(arguments.job_id)
        except KeyError as error:
            print(str(error), file=sys.stderr)
            return 1
        for key, value in dataclasses.asdict(record).items():
            print(f"{key}: {value}")
        return 0
    if arguments.jobs_command == "cancel":
        from repro.service.jobs import JobStateError

        service = _job_service(arguments)
        try:
            record = service.cancel(arguments.job_id)
        except (KeyError, JobStateError) as error:
            print(str(error), file=sys.stderr)
            return 1
        print(f"job {record.id}: {record.status}")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


def _command_verify(arguments: argparse.Namespace) -> int:
    from repro.service import verify_csv_satisfies

    try:
        spec = _privacy_spec(arguments)
    except (ValueError, UnknownEntryError) as error:
        print(error, file=sys.stderr)
        return 2
    satisfied = verify_csv_satisfies(arguments.input, _qi_names(arguments), arguments.sa, spec)
    if satisfied:
        print(f"OK: {arguments.input} satisfies {spec.describe()}")
        return 0
    print(
        f"FAIL: {arguments.input} violates {spec.describe()} (or holds no rows)",
        file=sys.stderr,
    )
    return 1


def _command_serve(
    arguments: argparse.Namespace, run_job: Callable[..., dict] | None = None
) -> int:
    """Boot the server; ``run_job`` replaces the pool's job function
    (:func:`repro.server.execute_job` when ``None``)."""
    import asyncio
    import signal

    from repro.obs.log import configure_logging
    from repro.server import AnonymizationServer, execute_job

    # Recovery events (retries, pool restarts, replay, quarantine) log at
    # INFO/WARNING on the repro.server logger; surface them on stderr so an
    # operator watching the process sees the self-healing happen.
    # ``--log-format json`` swaps in the structured JSON-lines formatter.
    configure_logging(arguments.log_format)
    server = AnonymizationServer(
        workspace=arguments.workspace,
        workers=arguments.workers,
        queue_cap=arguments.queue_cap,
        rate_limit=arguments.rate_limit,
        rate_burst=arguments.rate_burst,
        max_body_bytes=arguments.max_body_bytes,
        use_store=not arguments.no_store,
        data_dir=arguments.data_dir,
        job_timeout_seconds=arguments.job_timeout,
        max_attempts=arguments.max_attempts,
        retry_backoff_seconds=arguments.retry_backoff,
        replay=not arguments.no_replay,
        run_job=run_job or execute_job,
    )

    async def _serve() -> None:
        host, port = await server.start(arguments.host, arguments.port)
        print(
            f"serving on http://{host}:{port} "
            f"(workers={arguments.workers} queue_cap={arguments.queue_cap} "
            f"workspace={server.workspace.root})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signal_number, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await stop.wait()
        print("shutting down (draining running jobs)...", flush=True)
        await server.shutdown(drain_seconds=5.0)

    asyncio.run(_serve())
    print("server stopped", flush=True)
    return 0


def _command_evaluate(arguments: argparse.Namespace) -> int:
    table = _csv_source(arguments).load()
    names = [name.strip() for name in arguments.algorithms.split(",") if name.strip()]
    records = run_suite([(arguments.input, table)], arguments.l, names, with_kl=arguments.kl)
    print(format_records(records))
    return 0


def _command_experiment(arguments: argparse.Namespace) -> int:
    config = ExperimentConfig.presets()[arguments.scale]()
    if arguments.name == "phase3":
        result = figures.phase3_frequency(dataset=arguments.dataset, config=config)
        print(result.format())
        return 0
    figure = figures.FIGURES[arguments.name](dataset=arguments.dataset, config=config)
    print(figure.format())
    if arguments.csv:
        figure.to_csv(arguments.csv)
        print(f"series written to {arguments.csv}")
    return 0


def _command_algorithms() -> int:
    rows = [
        (
            info.name,
            info.complexity,
            info.approximation,
            "yes" if info.supports_sharding else "no",
            "yes" if info.deterministic else "no",
            info.description,
        )
        for info in algorithm_registry.entries()
    ]
    _print_table(
        ["algorithm", "complexity", "approximation", "sharding", "deterministic", "description"],
        rows,
    )
    return 0


def _command_privacy() -> int:
    def render_params(schema: dict) -> str:
        parts = []
        for name, constraints in sorted(schema.items()):
            bounds = ", ".join(
                f"{key} {value}"
                for key, value in constraints.items()
                if key != "type"
            )
            parts.append(f"{name}: {constraints['type']}" + (f" ({bounds})" if bounds else ""))
        return "; ".join(parts)

    rows = [
        (
            info.name,
            render_params(info.params_schema),
            "enforce + verify" if info.enforceable else "verify only",
            "yes" if info.name == "frequency-l" else "no",
            info.description,
        )
        for info in privacy_registry.entries()
    ]
    _print_table(["privacy model", "parameters", "usable for", "default", "description"], rows)
    return 0


def _command_metrics() -> int:
    rows = [
        (
            info.name,
            "table + published" if info.needs_source else "published",
            info.better,
            info.description,
        )
        for info in metric_registry.entries()
    ]
    _print_table(["metric", "inputs", "better", "description"], rows)
    return 0


def _print_table(headers: list[str], rows: list[tuple[str, ...]]) -> None:
    print(format_fixed_width(headers, rows))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "anonymize":
        return _command_anonymize(arguments)
    if arguments.command == "plan":
        return _command_plan(arguments)
    if arguments.command == "jobs":
        return _command_jobs(arguments)
    if arguments.command == "verify":
        return _command_verify(arguments)
    if arguments.command == "serve":
        return _command_serve(arguments)
    if arguments.command == "evaluate":
        return _command_evaluate(arguments)
    if arguments.command == "experiment":
        return _command_experiment(arguments)
    if arguments.command == "algorithms":
        return _command_algorithms()
    if arguments.command == "metrics":
        return _command_metrics()
    if arguments.command == "privacy":
        return _command_privacy()
    parser.error(f"unknown command {arguments.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
