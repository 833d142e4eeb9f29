"""Output checks that share no code with the program under test.

``verify_csv_l_diverse`` and ``PrivacySpec.check_generalized`` belong to the
program, so the benchmark re-derives everything from what it published:

* the row count and the multiset of sensitive values equal the input's
  (for a table saved as arrays, row by row: each row's sensitive value and
  unsuppressed QI cells are its input row's);
* grouping rows by their published QI cells, every group satisfies
  frequency l-diversity: ``max SA count * l <= group size``;
* the number of suppressed cells (``*``) is returned, so callers can pin it
  per op and seed (see ``pins.py``).

Any violation raises :class:`CheckError`; the op then counts as failed.
Run as a script, it checks one output in a process of its own::

    python3 perfbench/oracle.py csv --published out.csv --input .bench_state/cache/sal-seed1-n1000000 --l 6
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

STAR = "*"


class CheckError(Exception):
    """A published output is wrong."""


def check_csv(text: str, meta: dict, l: int) -> int:
    """Check one published CSV against its input ``meta``; returns its stars."""
    if '"' in text:
        raise CheckError("published CSV quotes a cell; no input value needs quoting")
    lines = text.splitlines()
    if not lines or lines[0].split(",") != meta["header"]:
        raise CheckError(f"header {lines[:1]} != {meta['header']}")
    rows = Counter(lines[1:])
    row_count = sum(rows.values())
    if row_count != meta["rows"]:
        raise CheckError(f"{row_count} published rows for {meta['rows']} input rows")
    width = len(meta["header"])
    groups: dict[str, Counter] = {}
    sa_counts: Counter = Counter()
    stars = 0
    for row, count in rows.items():
        qi, _, sa = row.rpartition(",")
        cells = qi.split(",")
        if len(cells) != width - 1:
            raise CheckError(f"row {row!r} does not have {width} cells")
        stars += cells.count(STAR) * count
        groups.setdefault(qi, Counter())[sa] += count
        sa_counts[sa] += count
    if dict(sa_counts) != meta["sa_counts"]:
        raise CheckError("the sensitive values differ from the input's as a multiset")
    for qi, histogram in groups.items():
        if max(histogram.values()) * l > sum(histogram.values()):
            raise CheckError(f"group ({qi}) of {sum(histogram.values())} rows is not {l}-diverse")
    return stars




def check_arrays(
    input_qi: np.ndarray,
    input_sa: np.ndarray,
    published_qi: np.ndarray,
    published_sa: np.ndarray,
    l: int,
) -> int:
    """Check a published table given as arrays; returns its stars.

    All codes are the generator's.  ``input_qi``/``input_sa`` are the input
    rows; row ``i`` of ``published_qi`` (``-1`` marks a suppressed cell) and
    ``published_sa`` is what the program published for input row ``i``.
    """
    n = input_qi.shape[0]
    if published_qi.shape != input_qi.shape or published_sa.shape != (n,):
        raise CheckError(
            f"published shapes {published_qi.shape}/{published_sa.shape} "
            f"do not match the input's {input_qi.shape}"
        )
    if not np.array_equal(published_sa, input_sa):
        raise CheckError(f"{np.count_nonzero(published_sa != input_sa)} rows publish another sensitive value")
    kept = published_qi != -1
    if np.any(published_qi[kept] != input_qi[kept]):
        raise CheckError(f"{np.count_nonzero(published_qi[kept] != input_qi[kept])} unsuppressed cells differ from the input's")
    cells = published_qi.astype(np.int64) + 1  # 0 is the star
    # One int64 key per published QI vector (mixed radix).
    key = np.zeros(n, dtype=np.int64)
    span = 1
    for column in cells.T:
        radix = int(column.max()) + 1
        span *= radix
        if span >= 1 << 62:
            raise CheckError("QI domains too large for the oracle's row keys")
        key = key * radix + column
    m = int(input_sa.max()) + 1
    _, group = np.unique(key, return_inverse=True)
    histogram = np.bincount(group * m + published_sa, minlength=(int(group.max()) + 1) * m)
    histogram = histogram.reshape(-1, m)
    if np.any(histogram.max(axis=1) * l > histogram.sum(axis=1)):
        raise CheckError(f"a published group is not {l}-diverse")
    return int(np.count_nonzero(~kept))


def recode(codes: np.ndarray, labels: list[str], into: list[str]) -> np.ndarray:
    """Map ``codes`` over ``labels`` to codes over ``into`` (``-1`` stays)."""
    index = {label: code for code, label in enumerate(into)}
    unknown = [label for label in labels if label not in index]
    if unknown:
        raise CheckError(f"published labels {unknown[:3]} are not in the input's domain")
    lookup = np.array([index[label] for label in labels] + [-1], dtype=np.int64)
    return lookup[codes]  # code -1 picks the trailing -1


def check_published_dir(directory: Path, meta: dict, codes: dict, l: int) -> int:
    """Check a table the benchmark saved from ``Engine.run``'s report.

    ``directory`` holds ``qi.i32`` (the published QI codes, row-major, ``-1``
    for a star), ``sa.npy`` (the published SA codes) and ``labels.json``
    (the program's label of every code), all in the program's coding.
    """
    labels = json.loads((directory / "labels.json").read_text())
    if labels["qi_names"] != meta["qi"]:
        raise CheckError(f"published QI columns {labels['qi_names']} != {meta['qi']}")
    d = len(meta["qi"])
    raw = np.fromfile(directory / "qi.i32", dtype=np.int32)
    if raw.size % d:
        raise CheckError(f"{raw.size} published QI cells do not fill rows of {d}")
    raw = raw.reshape(-1, d)
    published_qi = np.column_stack(
        [recode(raw[:, j], labels["qi"][j], meta["qi_labels"][j]) for j in range(d)]
    )
    published_sa = recode(np.load(directory / "sa.npy"), labels["sa"], meta["sa_labels"])
    return check_arrays(codes["qi"], codes["sa"], published_qi, published_sa, l)


def main(argv: list[str]) -> int:
    """Check one published output in a process of its own, so the check's
    memory never counts in the peak RSS of the process that produced it."""
    parser = argparse.ArgumentParser(description="check one published output")
    parser.add_argument("kind", choices=("csv", "arrays"))
    parser.add_argument("--published", required=True, help="a CSV file, or a directory of arrays")
    parser.add_argument("--input", required=True, help="the cached input's stem")
    parser.add_argument("--l", type=int, required=True)
    arguments = parser.parse_args(argv)
    stem = Path(arguments.input)
    meta = json.loads(stem.with_suffix(".json").read_text())
    try:
        if arguments.kind == "csv":
            stars = check_csv(Path(arguments.published).read_text(), meta, arguments.l)
        else:
            codes = dict(np.load(stem.with_suffix(".npz")))
            stars = check_published_dir(Path(arguments.published), meta, codes, arguments.l)
    except CheckError as error:
        print(f"CheckError: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"stars": stars}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
