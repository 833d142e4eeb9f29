"""End-to-end streaming anonymization: CSV in, CSV out, bounded memory.

``ldiversity anonymize big.csv --stream --output anon.csv`` must work at
``n`` far beyond memory.  The in-memory engine path materializes the full
table before sharding; this module instead drives the whole pipeline off
:meth:`~repro.engine.sources.CsvSource.iter_chunks` in three passes, never
holding more than one chunk plus one shard:

1. **Scan** — stream the file once, accumulating per-QI-key row counts and
   sensitive-value histograms (memory is O(distinct QI keys), not O(n));
   check global l-eligibility from the aggregate histogram.
2. **Partition + spill** — pack the sorted QI keys into contiguous
   QI-prefix shards by the same quota/eligibility-repair rules as
   :func:`repro.engine.sharding.qi_prefix_shards` (computed from the
   histograms alone), then stream the file again, routing each row's
   *encoded codes* to its shard's spill file on disk.
3. **Anonymize + emit** — load one spill at a time, run the algorithm,
   verify the shard l-diverse and append its published rows to the
   :class:`~repro.engine.sinks.CsvSink`.

Each shard is a union of complete QI-groups and is enforced/verified against
the requested privacy spec before it is emitted, so the concatenation of the
shard outputs satisfies every group-local spec by construction (the same
argument as the in-memory merge).  Unlike the in-memory path, rows are
emitted in **QI-sorted shard order**, not original file order — the price of
never holding the table.  :func:`verify_csv_satisfies` re-checks the
published file against any registered privacy model by streaming it
(:func:`verify_csv_l_diverse` is the frequency-l shorthand), which the CI
smoke uses as an independent oracle.
"""

from __future__ import annotations

import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.dataset.table import Table
from repro.engine.core import run_with_spec
from repro.engine.registry import algorithm_registry
from repro.engine.sharding import partition_group_keys
from repro.engine.sinks import CsvSink
from repro.engine.sources import CsvSource
from repro.errors import IneligibleTableError, VerificationError
from repro.privacy.spec import (
    PrivacySpec,
    enforce_spec,
    privacy_registry,
    resolve_privacy,
)

__all__ = [
    "StreamReport",
    "stream_anonymize",
    "verify_csv_l_diverse",
    "verify_csv_satisfies",
]

#: Default number of CSV rows decoded per chunk during the scan/spill passes.
DEFAULT_CHUNK_ROWS = 50_000


@dataclass(frozen=True)
class StreamReport:
    """Outcome of one streaming anonymization run."""

    label: str
    output_path: str
    algorithm: str
    l: int
    #: Canonical token of the privacy spec the run enforced.
    privacy: str
    n: int
    d: int
    shard_sizes: tuple[int, ...]
    stars: int
    suppressed_tuples: int
    groups: int
    seconds: float
    verified: bool

    def format(self) -> str:
        return (
            f"streamed {self.n} rows ({self.d} QI) through "
            f"{len(self.shard_sizes)} shard(s) with {self.algorithm} under "
            f"{self.privacy}: "
            f"{self.stars} stars, {self.suppressed_tuples} suppressed tuples, "
            f"{self.groups} groups in {self.seconds:.2f}s -> {self.output_path}"
        )


def _scan(source: CsvSource, chunk_rows: int) -> tuple[dict[tuple, Counter], int]:
    """Pass 1: per-QI-key sensitive-value histograms, streamed.

    Each chunk is reduced with one run-length encoding pass
    (:meth:`~repro.dataset.table.Table.qi_sa_runs_arrays`): every ``(QI key,
    sensitive value)`` run contributes a single Counter update weighted by
    its length, so the Python-level work is O(distinct runs) instead of
    O(rows).  The histograms equal a per-tuple Counter scan (a regression
    test asserts this) because a histogram is order-insensitive.
    """
    key_histograms: dict[tuple, Counter] = {}
    n = 0
    for chunk in source.iter_chunks(chunk_rows):
        if len(chunk):
            group_keys, group_run_bounds, run_bounds, run_values, _ = (
                chunk.qi_sa_runs_arrays()
            )
            run_lengths = np.diff(run_bounds).tolist()
            values = run_values.tolist()
            bounds = group_run_bounds.tolist()
            for group_id, key in enumerate(map(tuple, group_keys.tolist())):
                histogram = key_histograms.setdefault(key, Counter())
                for run in range(bounds[group_id], bounds[group_id + 1]):
                    histogram[values[run]] += run_lengths[run]
        n += len(chunk)
    return key_histograms, n


# Shard boundaries are computed by the same quota/eligibility-repair code
# as the in-memory path — repro.engine.sharding.partition_group_keys — fed
# with the scan pass's histograms, so the two pipelines can never drift.


def _spill_chunk(chunk: Table, shard_of: dict, spills: list, d: int) -> None:
    """Pass 2 inner loop: route one chunk's encoded rows to the shard spills.

    Rows are written as raw ``(d + 1)`` int32 blocks, landing in each spill
    with QI keys ascending and original row index ascending within a key —
    the spill's row order is the shard table's row order and hence
    observable in the published bytes.  A QI-only stable lexsort delivers
    precisely that order (it is the same sort ``group_by_qi`` uses), after
    which one boolean mask per shard appends every row in a single write.
    """
    if not len(chunk):
        return
    columns = chunk.qi_columns
    sa = chunk.sa_array
    order = np.lexsort(columns.T[::-1])
    block = np.empty((len(chunk), d + 1), dtype=np.int32)
    block[:, :d] = np.take(columns, order, axis=0)
    block[:, d] = sa[order]
    starts = np.empty(len(chunk), dtype=bool)
    starts[0] = True
    np.any(block[1:, :d] != block[:-1, :d], axis=1, out=starts[1:])
    start_rows = np.flatnonzero(starts)
    group_shards = np.asarray(
        [shard_of[key] for key in map(tuple, block[start_rows, :d].tolist())],
        dtype=np.intp,
    )
    sizes = np.diff(np.append(start_rows, len(chunk)))
    row_shards = np.repeat(group_shards, sizes)
    for index, spill in enumerate(spills):
        mask = row_shards == index
        if mask.any():
            spill.write(block[mask].tobytes())


def stream_anonymize(
    source: CsvSource,
    output_path: str | Path,
    algorithm: str = "TP+",
    l: int = 2,
    shards: int | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    planner=None,
    spill_dir: str | Path | None = None,
    privacy: "PrivacySpec | dict | None" = None,
) -> StreamReport:
    """Anonymize a CSV source into a CSV file without materializing the table.

    ``privacy`` selects the privacy model (``None`` keeps the ``l=`` sugar
    for frequency l-diversity); each shard goes through the spec enforcement
    pass before it is emitted, so group-local specs hold for the whole
    published file.  ``shards`` of ``None`` asks the cost-based planner;
    streaming always processes shards sequentially (one shard resident at a
    time is the whole point), so the planner's worker choice is ignored
    here.
    """
    started = time.perf_counter()
    info = algorithm_registry.get(algorithm)
    spec = resolve_privacy(privacy, l)
    if not privacy_registry.get(spec.kind).enforceable:
        raise ValueError(
            f"privacy model {spec.kind!r} is check-only and cannot be "
            "requested as an anonymization target"
        )
    if shards is not None and shards > 1 and not info.supports_sharding:
        raise ValueError(f"algorithm {info.name!r} does not support sharded execution")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")

    schema = source.resolved_schema()
    bounded_source = CsvSource(
        source.path, source.qi_names, source.sa_name, schema=schema,
        delimiter=source.delimiter,
    )

    key_histograms, n = _scan(bounded_source, chunk_rows)
    if n == 0:
        raise IneligibleTableError(f"{source.path}: no data rows to anonymize")
    total: Counter = Counter()
    for histogram in key_histograms.values():
        total.update(histogram)
    if not spec.eligible(total, n):
        raise IneligibleTableError(
            f"table is not eligible for {spec.describe()}; "
            "no satisfying generalization exists"
        )

    if shards is None:
        if planner is None:
            from repro.service.planner import default_planner

            planner = default_planner()
        shards = planner.decide(info, n=n, d=schema.dimension, l=l, privacy=spec).shards
    key_shards = partition_group_keys(
        sorted(key_histograms), key_histograms, shards, spec, n
    )
    shard_of = {key: index for index, keys in enumerate(key_shards) for key in keys}

    d = schema.dimension
    stars = 0
    suppressed = 0
    groups = 0
    shard_sizes: list[int] = []
    with tempfile.TemporaryDirectory(
        dir=None if spill_dir is None else str(spill_dir)
    ) as tmp:
        # Spill files are raw little-endian int32 row blocks of width d + 1
        # (QI codes then the SA code): they are written with ndarray.tobytes()
        # and read back with one np.fromfile + reshape — no text round-trip.
        spills = [
            open(Path(tmp) / f"shard-{index}.codes", "wb")
            for index in range(len(key_shards))
        ]
        try:
            for chunk in bounded_source.iter_chunks(chunk_rows):
                _spill_chunk(chunk, shard_of, spills, d)
        finally:
            for spill in spills:
                spill.close()

        with CsvSink(str(output_path), delimiter=source.delimiter) as sink:
            sink.open(schema)
            for index in range(len(key_shards)):
                spill_path = Path(tmp) / f"shard-{index}.codes"
                codes = np.fromfile(spill_path, dtype=np.int32).reshape(-1, d + 1)
                spill_path.unlink()
                # The codes round-tripped through our own encoder, so skip
                # the domain re-scan.
                shard = Table.from_arrays(
                    schema, codes[:, :d], codes[:, d], validate=False
                )
                output = run_with_spec(info.runner, shard, spec)
                # Per-shard enforcement: group-local specs compose across
                # shards, so repairing each shard repairs the whole file.
                # Only specs the frequency guarantee does not imply are
                # repaired — for the rest a violation is an algorithm bug
                # and must fail the check below, not be merged away.
                enforced = output.generalized
                if not spec.implied_by_frequency():
                    enforced, _merges = enforce_spec(shard, enforced, spec)
                if not spec.check_generalized(enforced):
                    raise VerificationError(
                        f"shard {index} output violates {spec.describe()}"
                    )
                sink.write_table(enforced)
                shard_sizes.append(len(shard))
                stars += enforced.star_count()
                suppressed += enforced.suppressed_tuple_count()
                groups += len(enforced.groups())

    return StreamReport(
        label=source.label,
        output_path=str(output_path),
        algorithm=algorithm,
        l=l,
        privacy=spec.token(),
        n=n,
        d=d,
        shard_sizes=tuple(shard_sizes),
        stars=stars,
        suppressed_tuples=suppressed,
        groups=groups,
        seconds=time.perf_counter() - started,
        verified=True,
    )


def verify_csv_satisfies(
    path: str | Path,
    qi_names: tuple[str, ...] | list[str],
    sa_name: str,
    privacy: "PrivacySpec | dict | int",
    delimiter: str = ",",
) -> bool:
    """Streaming privacy check of a *published* CSV file against any spec.

    Groups rows by their rendered generalized QI vector and checks the
    spec's per-group condition (``check``), passing the table-wide SA
    histogram for globally-defined models (t-closeness).  Two true
    QI-groups that render identically are checked as their union — the
    granularity an adversary reading the file actually observes (and for
    frequency l-diversity provably sound: the union of l-eligible multisets
    is l-eligible).  Check-only models are accepted here: this is an audit,
    not an anonymization.  Memory is O(distinct published QI vectors).
    """
    import csv as _csv

    spec = resolve_privacy(privacy)
    histograms: dict[tuple, Counter] = {}
    total: Counter = Counter()
    with open(path, newline="") as handle:
        reader = _csv.DictReader(handle, delimiter=delimiter)
        for row in reader:
            key = tuple(row[name] for name in qi_names)
            histograms.setdefault(key, Counter())[row[sa_name]] += 1
            total[row[sa_name]] += 1
    if not histograms:
        return False
    return all(spec.check(histogram, total) for histogram in histograms.values())


def verify_csv_l_diverse(
    path: str | Path,
    qi_names: tuple[str, ...] | list[str],
    sa_name: str,
    l: int,
    delimiter: str = ",",
) -> bool:
    """Streaming frequency l-diversity check (shorthand for
    :func:`verify_csv_satisfies` with ``FrequencyLDiversity(l)``)."""
    return verify_csv_satisfies(path, qi_names, sa_name, int(l), delimiter=delimiter)
