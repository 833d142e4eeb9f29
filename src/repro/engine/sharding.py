"""QI-prefix sharding and shard-output merging.

The sharded execution pipeline splits a large table into shards that are
each a union of *complete* QI-groups, contiguous in the lexicographic order
of their QI vectors ("QI-prefix" shards: every shard owns an interval of the
sorted QI keyspace, so rows agreeing on a QI prefix land together).  Each
shard is anonymized independently — sequentially or on the harness's process
pool — and the published shard tables are merged back in original row order.

Correctness: generalization operates per QI-group, a merged table's
QI-groups are exactly the union of the shard outputs' QI-groups, and each
shard output satisfies the (group-local) privacy spec; therefore the merged
table satisfies it by construction (the engine still verifies the merged
table and raises :class:`~repro.errors.ShardMergeError` on violation).

Utility (the documented merge bound): sharding constrains the algorithm to
never build a bucket from QI-groups in different shards, so for the bucket-
building algorithms (TP, TP+, Hilbert) each of the ``shards - 1`` boundaries
can strand at most one under-full residue of fewer than ``floor`` tuples per
side — where ``floor`` is the spec's minimum group size,
:meth:`~repro.privacy.spec.PrivacySpec.group_floor` (``l`` for the default
frequency spec) — each costing at most ``d`` stars per tuple.  The engine
therefore documents

    |stars(sharded) - stars(unsharded)|  <=  2 * (shards - 1) * floor * d
    |suppressed(sharded) - suppressed(unsharded)|  <=  2 * (shards - 1) * floor

as the merge bound; ``scripts/shard_smoke.py`` and the engine tests assert
it on fixed seeds.  Shards whose residents are not eligible under the spec
on their own are merged into their successor before execution, so every
dispatched shard is guaranteed anonymizable (Lemma 1 for the frequency
spec; the spec's :meth:`~repro.privacy.spec.PrivacySpec.eligible` condition
in general).

Every ``privacy`` parameter below accepts a
:class:`~repro.privacy.spec.PrivacySpec` or a bare ``int`` as sugar for
``FrequencyLDiversity(l)`` — existing ``l``-threading callers keep working
unchanged.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

from repro.dataset.generalized import GeneralizedTable
from repro.dataset.table import Table
from repro.engine.registry import AlgorithmOutput
from repro.errors import IneligibleTableError, ShardMergeError
from repro.privacy.spec import PrivacySpec, resolve_privacy

__all__ = [
    "merge_shard_outputs",
    "partition_group_keys",
    "qi_prefix_shards",
    "suppression_merge_bound",
]


def suppression_merge_bound(shards: int, privacy: "int | PrivacySpec", d: int = 1) -> int:
    """The documented bound on sharded-vs-unsharded suppression differences.

    ``privacy`` is a spec or an ``l`` integer; the bound scales with the
    spec's :meth:`~repro.privacy.spec.PrivacySpec.group_floor`.
    """
    floor = resolve_privacy(privacy).group_floor()
    return 2 * max(shards - 1, 0) * floor * d


def partition_group_keys(
    ordered_keys: Sequence,
    histograms: Mapping,
    shard_count: int,
    privacy: "int | PrivacySpec",
    n: int,
) -> list[list]:
    """Pack ordered QI-group keys into at most ``shard_count`` spec-eligible shards.

    ``histograms`` maps each key to a ``Counter`` of its sensitive values;
    only the histograms are consulted, so this is shared verbatim by the
    in-memory path (:func:`qi_prefix_shards`) and the streaming pipeline,
    which never materializes the rows.  Keys are walked in the given order
    and packed greedily into contiguous shards of roughly equal cardinality
    (closing a shard once its cumulative row count reaches the quota
    ``i * n / shard_count``), then a repair pass merges any shard that is
    not eligible under the privacy spec on its own into its successor
    (eligibility of the union is not guaranteed by eligibility of the
    parts, so the pass iterates until stable).
    """
    spec = resolve_privacy(privacy)
    if shard_count <= 1 or len(ordered_keys) <= 1:
        return [list(ordered_keys)]

    def shard_size(keys: list) -> int:
        return sum(sum(histograms[key].values()) for key in keys)

    shards: list[list] = []
    current: list = []
    current_rows = 0
    assigned = 0
    for key in ordered_keys:
        current.append(key)
        current_rows += sum(histograms[key].values())
        quota = ((len(shards) + 1) * n + shard_count - 1) // shard_count
        if len(shards) < shard_count - 1 and assigned + current_rows >= quota:
            assigned += current_rows
            shards.append(current)
            current, current_rows = [], 0
    if current:
        shards.append(current)

    def eligible(keys: list) -> bool:
        histogram: Counter = Counter()
        for key in keys:
            histogram.update(histograms[key])
        return spec.eligible(histogram, shard_size(keys))

    while len(shards) > 1:
        merged_any = False
        repaired: list[list] = []
        for shard in shards:
            if repaired and not eligible(repaired[-1]):
                repaired[-1] = repaired[-1] + shard
                merged_any = True
            else:
                repaired.append(shard)
        # The last shard may itself be ineligible: fold it backwards.
        if len(repaired) > 1 and not eligible(repaired[-1]):
            last = repaired.pop()
            repaired[-1] = repaired[-1] + last
            merged_any = True
        shards = repaired
        if not merged_any:
            break
    return shards


def qi_prefix_shards(
    table: Table, shard_count: int, privacy: "int | PrivacySpec"
) -> list[list[int]]:
    """Partition row indices into at most ``shard_count`` spec-eligible shards.

    QI-groups are walked in ascending lexicographic order of their QI vectors
    and packed/repaired by :func:`partition_group_keys`.  The returned shards
    are a disjoint cover of ``range(len(table))``, each a union of complete
    QI-groups, each eligible under the privacy spec; fewer than
    ``shard_count`` shards come back when repair had to merge.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    spec = resolve_privacy(privacy)
    n = len(table)
    if n == 0:
        return []
    if not spec.eligible(table.sa_counts(), n):
        raise IneligibleTableError(
            f"table is not eligible for {spec.describe()}; "
            "no satisfying generalization exists"
        )
    if shard_count == 1:
        return [list(range(n))]

    # Sort the keys so shard layout never depends on group_by_qi's insertion
    # order (the same sorted order the streaming pipeline uses).
    groups = table.group_by_qi()
    ordered_keys = sorted(groups)
    sa_values = table.sa_values
    histograms = {
        key: Counter(sa_values[index] for index in rows) for key, rows in groups.items()
    }
    key_shards = partition_group_keys(ordered_keys, histograms, shard_count, spec, n)
    return [
        [index for key in keys for index in groups[key]] for keys in key_shards
    ]


def merge_shard_outputs(
    table: Table,
    shard_rows: list[list[int]],
    outputs: list[AlgorithmOutput],
    privacy: "int | PrivacySpec",
    verify: bool = True,
) -> GeneralizedTable:
    """Merge per-shard published tables back into one table in original row order.

    ``outputs[i]`` must be the anonymization of ``table.subset(shard_rows[i])``;
    its rows therefore correspond positionally to ``shard_rows[i]``.  Group
    ids are offset per shard so groups never collide across shards.
    """
    if len(shard_rows) != len(outputs):
        raise ValueError(
            f"{len(shard_rows)} shards but {len(outputs)} outputs to merge"
        )
    n = len(table)
    cells: list = [None] * n
    group_ids = [0] * n
    group_offset = 0
    for rows, output in zip(shard_rows, outputs):
        shard_table = output.generalized
        if len(shard_table) != len(rows):
            raise ShardMergeError(
                f"shard output has {len(shard_table)} rows, expected {len(rows)}"
            )
        shard_cells = shard_table.cell_rows
        shard_groups = shard_table.group_ids
        for local, global_index in enumerate(rows):
            cells[global_index] = shard_cells[local]
            group_ids[global_index] = group_offset + shard_groups[local]
        group_offset += len(shard_table.groups())
    if any(cell is None for cell in cells):
        raise ShardMergeError("shards do not cover every row of the table")
    merged = GeneralizedTable._from_trusted(
        table.schema, cells, table.sa_values, group_ids
    )
    if verify:
        spec = resolve_privacy(privacy)
        if not spec.check_generalized(merged):
            raise ShardMergeError(
                f"merged table violates {spec.describe()}; sharding invariant broken"
            )
    return merged
