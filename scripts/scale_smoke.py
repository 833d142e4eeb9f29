"""CI smoke for the raw-speed path: mmap bit-identity, warm start, overheads.

Builds a 10^5-row synthetic table, persists it as an on-disk column store,
and checks the acceptance properties of the zero-copy pipeline:

1. **Bit-identity** — the memory-mapped, chunk-capped engine run publishes
   exactly the same bytes as the unsharded in-memory run (table fingerprints
   and rendered CSV output compared verbatim).
2. **Warm start** — a second engine run against the same column store loads
   the persisted ``order.npy`` sort permutation instead of re-sorting: the
   cold run's profile must contain the ``sort`` stage and the warm run's
   must not.
3. **Telemetry overhead** — the serving stack's per-job observability cost
   (stage profiling force-enabled in the worker plus every registry
   mutation a served job implies) is replayed on the benched mmap run and
   must add less than ``TELEMETRY_OVERHEAD_CAP - 1`` (2%) over the bare
   run, best-of-``BENCH_ROUNDS`` timings on both sides.
4. **Encode/publish kernels** — the packed-sort encode
   (:meth:`GroupingContext.build`) and the columnar publish
   (:meth:`GeneralizedTable.from_partition`) are bit-identical to their
   retained serial oracles (including with the chunked pool paths forced)
   and beat them combined by at least ``MIN_SPEEDUP``x.

Run with ``PYTHONPATH=src python scripts/scale_smoke.py`` (wired into
``scripts/ci.sh``).
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro import profiling
from repro.engine import (
    ColumnStore,
    ColumnStoreSource,
    CsvSink,
    Engine,
    RunPlan,
    TableSource,
)
from repro.engine.cache import ResultCache
from repro.dataset.synthetic import CensusConfig, make_sal

N = 100_000
L = 6
SEED = 7
QI_SCALE = 0.24
CHUNK_ROWS = 20_000
MIN_SPEEDUP = 2.0
BENCH_ROUNDS = 3
TELEMETRY_OVERHEAD_CAP = 1.02
#: Absolute slack on top of the 2% cap so scheduler jitter on a sub-second
#: benched run cannot fail the guard spuriously.
TELEMETRY_EPSILON_SECONDS = 0.010


def _run(source, chunk_rows: int | None = None):
    return Engine(cache=ResultCache()).run(
        RunPlan(
            source=source,
            algorithm="TP+",
            l=L,
            shards=1,
            chunk_rows=chunk_rows,
            use_cache=False,
        )
    )


def _rendered(report, path: Path) -> bytes:
    with CsvSink(str(path)) as sink:
        sink.write_table(report.generalized)
    return path.read_bytes()


def _profiled_run(store_dir: Path) -> dict[str, float]:
    """One engine run against ``store_dir`` with stage profiling captured."""
    profiling.set_enabled(True)
    profiling.reset()
    try:
        _run(ColumnStoreSource(str(store_dir)))
    finally:
        profiling.set_enabled(False)
    return profiling.snapshot()


def _check_warm_start(table, tmp: Path) -> bool:
    """order.npy warm start: the second run on the same store skips the sort."""
    store_dir = tmp / "warm-store"
    ColumnStore.from_table(table).save(store_dir)
    cold = _profiled_run(store_dir)
    warm = _profiled_run(store_dir)
    if cold.get("sort", 0.0) <= 0.0:
        print("FAIL: cold run recorded no sort stage (guard cannot bite)")
        return False
    if "sort" in warm:
        print("FAIL: warm run re-sorted despite the persisted order.npy")
        return False
    if not (store_dir / "order.npy").exists():
        print("FAIL: order.npy sidecar missing after the cold run")
        return False
    print(
        f"warm start: cold sort {cold['sort']:.3f}s, warm run served from "
        "order.npy (no sort stage)"
    )
    return True


def _check_telemetry_overhead(mmap_source) -> bool:
    """Telemetry must cost < 2% of the benched run.

    The serving path adds two kinds of per-job observability cost: stage
    profiling is force-enabled inside the pool worker (to bridge engine
    spans back through the result payload) and the server mutates registry
    instruments around the job.  Both are replayed here on top of the
    benched mmap run and compared with the bare run, best of
    ``BENCH_ROUNDS`` timings each so scheduler noise is damped.
    """
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    http_requests = registry.counter(
        "repro_http_requests_total", "", ("route", "method", "status")
    )
    http_seconds = registry.histogram(
        "repro_http_request_seconds", "", ("route",)
    )
    submitted = registry.counter("repro_jobs_submitted_total", "")
    terminal = registry.counter("repro_jobs_terminal_total", "", ("state",))
    attempt_seconds = registry.histogram(
        "repro_job_attempt_seconds", "", ("outcome",)
    )
    stage_seconds = registry.histogram(
        "repro_engine_stage_seconds", "", ("stage",)
    )

    def bare() -> None:
        _run(mmap_source, chunk_rows=CHUNK_ROWS)

    def instrumented() -> None:
        profiling.set_enabled(True)
        profiling.reset()
        started = time.perf_counter()
        try:
            _run(mmap_source, chunk_rows=CHUNK_ROWS)
        finally:
            elapsed = time.perf_counter() - started
            profile = profiling.snapshot()
            profiling.set_enabled(False)
        # The registry mutations one served job implies (submit, one status
        # poll, the result fetch, lifecycle counters, stage histograms).
        for route, method in (
            ("/v1/jobs", "POST"),
            ("/v1/jobs/{id}", "GET"),
            ("/v1/jobs/{id}/result", "GET"),
        ):
            http_requests.inc(route=route, method=method, status="200")
            http_seconds.observe(0.001, route=route)
        submitted.inc()
        terminal.inc(state="done")
        attempt_seconds.observe(elapsed, outcome="done")
        for stage, seconds in profile.items():
            stage_seconds.observe(seconds, stage=stage)

    def best_of(function) -> float:
        best = float("inf")
        for _ in range(BENCH_ROUNDS):
            started = time.perf_counter()
            function()
            best = min(best, time.perf_counter() - started)
        return best

    bare_seconds = best_of(bare)
    instrumented_seconds = best_of(instrumented)
    added = instrumented_seconds - bare_seconds
    allowed = bare_seconds * (TELEMETRY_OVERHEAD_CAP - 1.0) + TELEMETRY_EPSILON_SECONDS
    print(
        f"telemetry overhead: bare {bare_seconds:.3f}s, instrumented "
        f"{instrumented_seconds:.3f}s -> {100.0 * added / bare_seconds:+.2f}% "
        f"(cap {100.0 * (TELEMETRY_OVERHEAD_CAP - 1.0):.0f}% + "
        f"{1000.0 * TELEMETRY_EPSILON_SECONDS:.0f}ms noise floor "
        f"= {allowed:.3f}s allowed)"
    )
    if added > allowed:
        print(
            f"FAIL: telemetry adds {added:.3f}s to the benched run, "
            f"allowed {allowed:.3f}s"
        )
        return False
    return True


def _check_encode_publish(table) -> bool:
    """Parallel encode/publish vs the serial oracles: identical and >= 2x.

    The encode side compares every array of the key-derived
    :class:`GroupingContext` against the wide-scan reference; the publish
    side compares the lazily materialized cells of the columnar
    ``from_partition`` against the row-by-row reference.  Both are re-run
    with the chunked pool paths forced (``PARALLEL_THRESHOLD=1``,
    ``MIN_SORT_CHUNKS=4``) so chunk stitching is covered at this scale too.
    """
    from repro.core import kernels
    from repro.core.grouping import GroupingContext
    from repro.dataset.generalized import GeneralizedTable, Partition

    args = (
        table.qi_columns,
        table.sa_array,
        [attribute.size for attribute in table.schema.qi],
        table.schema.sensitive.size,
    )
    context_arrays = (
        "order",
        "group_keys",
        "group_run_bounds",
        "run_bounds",
        "run_values",
    )

    started = time.perf_counter()
    fast_context = GroupingContext.build(*args)
    encode_seconds = time.perf_counter() - started
    started = time.perf_counter()
    oracle_context = GroupingContext.build_reference(*args)
    encode_reference = time.perf_counter() - started
    for name in context_arrays:
        if getattr(fast_context, name).tolist() != getattr(oracle_context, name).tolist():
            print(f"FAIL: parallel encode diverges from the serial oracle ({name})")
            return False

    partition = Partition.by_qi(table)
    started = time.perf_counter()
    fast = GeneralizedTable.from_partition(table, partition)
    publish_seconds = time.perf_counter() - started
    started = time.perf_counter()
    oracle = GeneralizedTable.from_partition_reference(table, partition)
    publish_reference = time.perf_counter() - started
    if (
        fast.cell_rows != oracle.cell_rows
        or fast.sa_values != oracle.sa_values
        or fast.group_ids != oracle.group_ids
        or fast.star_count() != oracle.star_count()
    ):
        print("FAIL: parallel publish diverges from the serial oracle")
        return False

    saved_threshold = kernels.PARALLEL_THRESHOLD
    saved_chunks = kernels.MIN_SORT_CHUNKS
    kernels.PARALLEL_THRESHOLD = 1
    kernels.MIN_SORT_CHUNKS = 4
    try:
        chunked_context = GroupingContext.build(*args)
        chunked = GeneralizedTable.from_partition(table, partition)
    finally:
        kernels.PARALLEL_THRESHOLD = saved_threshold
        kernels.MIN_SORT_CHUNKS = saved_chunks
    for name in context_arrays:
        if (
            getattr(chunked_context, name).tolist()
            != getattr(oracle_context, name).tolist()
        ):
            print(f"FAIL: forced-chunk encode diverges ({name})")
            return False
    if chunked.cell_rows != oracle.cell_rows:
        print("FAIL: forced-chunk publish diverges from the serial oracle")
        return False

    fast_seconds = encode_seconds + publish_seconds
    reference_seconds = encode_reference + publish_reference
    ratio = reference_seconds / fast_seconds if fast_seconds else float("inf")
    print(
        f"encode+publish: fast {encode_seconds:.3f}s+{publish_seconds:.3f}s, "
        f"reference {encode_reference:.3f}s+{publish_reference:.3f}s "
        f"-> {ratio:.2f}x (outputs identical, chunked paths identical)"
    )
    if ratio < MIN_SPEEDUP:
        print(f"FAIL: encode+publish speedup below the {MIN_SPEEDUP:g}x floor")
        return False
    return True


def main() -> int:
    print(f"scale smoke: n={N}, l={L}, chunk_rows={CHUNK_ROWS}")
    table = make_sal(N, seed=SEED, config=CensusConfig.scaled(QI_SCALE))
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        ColumnStore.from_table(table).save(store_dir)
        mmap_source = ColumnStoreSource(str(store_dir))

        mmap_table = mmap_source.load()
        if mmap_table.fingerprint() != table.fingerprint():
            print("FAIL: mmap table fingerprint differs from in-memory table")
            return 1

        memory = _run(TableSource(table))
        mapped = _run(mmap_source, chunk_rows=CHUNK_ROWS)
        if _rendered(memory, Path(tmp) / "memory.csv") != _rendered(
            mapped, Path(tmp) / "mapped.csv"
        ):
            print("FAIL: mmap/chunked output differs from the in-memory run")
            return 1
        print(
            f"bit-identity OK: {memory.generalized.star_count()} stars, "
            f"{memory.generalized.suppressed_tuple_count()} suppressed"
        )

        if not _check_encode_publish(table):
            return 1
        if not _check_warm_start(table, Path(tmp)):
            return 1
        if not _check_telemetry_overhead(mmap_source):
            return 1
    print("OK: scale smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
