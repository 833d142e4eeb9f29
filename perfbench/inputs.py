"""Seeded benchmark inputs: SAL synthetic tables rendered as CSV text.

Tables come from ``repro.dataset.synthetic.make_sal`` with
``CensusConfig.scaled(0.24)`` and its seven QI columns, the regime of
``BENCH_scale.json``.  The rows of each input are those of one fixed table
per ``(rows, variant)``; the run's seed permutes them.  Row order changes the
CSV bytes, the sort's input and TP+'s tie-breaks, while the multiset of rows
stays put, so every seed does the same work and TP publishes the same stars
(TP+ within about 1%).  Fresh tables per seed would move stars per row by
about 4% at 10^6 rows and hide a real change behind that spread.  The CSV is written here, not with ``Table.to_csv``,
so a run does not pay 6.5 s per 10^6 rows to make its input; the program
under test only ever sees the finished files.  Every input carries a
``meta`` dict (header, row count, SA value counts) that the output checks in
``oracle.py`` compare against.

Large inputs are cached by ``(seed, rows)`` under the run-state directory.
Run as a script to fill the cache from a separate process, so the memory
spent generating never shows in a workload's peak RSS::

    PYTHONPATH=src python3 perfbench/inputs.py --seed 1 --rows 1000000 --cache .bench_state/cache
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

QI_SCALE = 0.24
BASE_SEED = 20100322
CHUNK_ROWS = 100_000
#: Cached (seed, rows) inputs kept on disk; older ones are evicted.
CACHE_KEEP = 6


def make_table(rows: int, seed: int, variant: int = 0):
    from repro.dataset.synthetic import CensusConfig, make_sal
    from repro.dataset.table import Table

    base = make_sal(rows, seed=[BASE_SEED, variant], config=CensusConfig.scaled(QI_SCALE))
    order = np.random.default_rng([seed, variant]).permutation(rows)
    return Table.from_arrays(base.schema, base.qi_columns[order], base.sa_array[order])


def iter_csv(table):
    """The table's CSV text in chunks, header first (``\\r\\n`` line ends,
    as the ``csv`` module writes them); no value needs quoting."""
    schema = table.schema
    yield ",".join(list(schema.qi_names) + [schema.sensitive.name]) + "\r\n"
    labels = [list(attribute.values) for attribute in schema.qi]
    sa_labels = list(schema.sensitive.values)
    for start in range(0, len(table), CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, len(table))
        columns = [
            [column_labels[code] for code in table.qi_columns[start:stop, j].tolist()]
            for j, column_labels in enumerate(labels)
        ]
        columns.append([sa_labels[code] for code in table.sa_array[start:stop].tolist()])
        yield "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def table_meta(table) -> dict:
    schema = table.schema
    sa_labels = schema.sensitive.values
    counts = Counter(table.sa_array.tolist())
    return {
        "rows": len(table),
        "header": list(schema.qi_names) + [schema.sensitive.name],
        "qi": list(schema.qi_names),
        "sa": schema.sensitive.name,
        "qi_labels": [[str(label) for label in attribute.values] for attribute in schema.qi],
        "sa_labels": [str(label) for label in sa_labels],
        "sa_counts": {str(sa_labels[code]): count for code, count in counts.items()},
    }


def csv_text(rows: int, seed: int, variant: int) -> tuple[str, dict]:
    """A small input held in memory (for uploads)."""
    table = make_table(rows, seed, variant)
    return "".join(iter_csv(table)), table_meta(table)


def write_csv(table, path: Path) -> None:
    """Write one input file atomically."""
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w", newline="") as handle:
        for chunk in iter_csv(table):
            handle.write(chunk)
    os.replace(partial, path)


def cache_paths(stem: Path) -> tuple[Path, Path, Path]:
    """A cached input's CSV, its meta, and the generator's codes of its rows."""
    return stem.with_suffix(".csv"), stem.with_suffix(".json"), stem.with_suffix(".npz")


def ensure_cached(cache: Path, seed: int, rows: int) -> tuple[Path, dict]:
    """The cached input for ``(seed, rows)``, generated on a miss.

    The meta file is written last, so its presence marks a complete entry.
    """
    cache.mkdir(parents=True, exist_ok=True)
    csv_path, meta_path, codes_path = cache_paths(cache / f"sal-seed{seed}-n{rows}")
    if not meta_path.is_file():
        table = make_table(rows, seed)
        write_csv(table, csv_path)
        np.savez(codes_path, qi=table.qi_columns.astype(np.int16), sa=table.sa_array)
        meta_path.write_text(json.dumps(table_meta(table)))
        _evict(cache, keep=meta_path)
    os.utime(meta_path)  # recency for eviction
    return csv_path, json.loads(meta_path.read_text())


def _evict(cache: Path, keep: Path) -> None:
    metas = sorted(cache.glob("sal-*.json"), key=lambda path: path.stat().st_mtime)
    for meta_path in metas[:-CACHE_KEEP]:
        if meta_path != keep:
            for path in cache_paths(meta_path.with_suffix("")):
                path.unlink(missing_ok=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="fill the benchmark input cache")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--cache", required=True)
    arguments = parser.parse_args(argv)
    ensure_cached(Path(arguments.cache), arguments.seed, arguments.rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
