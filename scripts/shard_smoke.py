"""CI smoke check for the sharded execution pipeline.

Runs the engine on a fixed-seed synthetic census table (n = 10k, 4 QI
attributes, l = 4) three ways — unsharded, sharded over 4 QI-prefix shards,
and sharded on a 2-process pool — and asserts:

1. every published table passes the l-diversity verification;
2. the sharded runs are **bit-identical** to the unsharded run (cell for
   cell).  At this seed TP's per-shard decisions coincide with the global
   ones, so the pipeline must reproduce the unsharded output exactly; any
   drift in sharding, merging or worker plumbing shows up here;
3. independently of (2), suppression differences stay within the documented
   merge bound ``2 * (shards - 1) * l * d`` (see repro.engine.sharding) —
   the guarantee the engine documents for *every* seed;
4. a replay of the sharded run through a run store in a temp directory is
   a store hit and returns the identical output.

Exit code 0 on success, 1 on any violation::

    PYTHONPATH=src python scripts/shard_smoke.py
"""

from __future__ import annotations

import sys
import tempfile

from repro.dataset.synthetic import CensusConfig
from repro.engine import (
    Engine,
    ResultCache,
    RunPlan,
    SyntheticSource,
    suppression_merge_bound,
)
from repro.service.store import RunStore

N = 10_000
SHARDS = 4
L = 4
SOURCE = SyntheticSource("SAL", n=N, seed=7, dimension=4, config=CensusConfig.scaled(0.30))


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="shard-smoke-") as tmp:
        check(Engine(cache=ResultCache(store=RunStore(tmp))))


def check(engine: Engine) -> None:
    print(f"shard smoke: {SOURCE.label}, l={L}, shards={SHARDS}")

    unsharded = engine.run(RunPlan(source=SOURCE, algorithm="TP", l=L, use_cache=False))
    sharded = engine.run(
        RunPlan(source=SOURCE, algorithm="TP", l=L, shards=SHARDS)
    )
    pooled = engine.run(
        RunPlan(source=SOURCE, algorithm="TP", l=L, shards=SHARDS, workers=2, use_cache=False)
    )

    for name, report in (("unsharded", unsharded), ("sharded", sharded), ("pooled", pooled)):
        if not report.generalized.is_l_diverse(L):
            fail(f"{name} output violates {L}-diversity")
    if len(sharded.shard_sizes) != SHARDS:
        fail(f"expected {SHARDS} shards, got {sharded.shard_sizes}")

    stars = unsharded.generalized.star_count()
    print(
        f"unsharded: {stars} stars, "
        f"{unsharded.generalized.suppressed_tuple_count()} suppressed tuples; "
        f"shard sizes {list(sharded.shard_sizes)}"
    )

    for name, report in (("sharded", sharded), ("pooled", pooled)):
        if report.generalized.cell_rows != unsharded.generalized.cell_rows:
            fail(f"{name} run is not bit-identical to the unsharded run at this seed")

    stars_bound = suppression_merge_bound(SHARDS, L, unsharded.d)
    tuples_bound = suppression_merge_bound(SHARDS, L)
    stars_delta = abs(sharded.generalized.star_count() - stars)
    tuples_delta = abs(
        sharded.generalized.suppressed_tuple_count()
        - unsharded.generalized.suppressed_tuple_count()
    )
    if stars_delta > stars_bound or tuples_delta > tuples_bound:
        fail(
            f"suppression outside merge bound: stars delta {stars_delta} (bound "
            f"{stars_bound}), tuple delta {tuples_delta} (bound {tuples_bound})"
        )

    replay = engine.run(RunPlan(source=SOURCE, algorithm="TP", l=L, shards=SHARDS))
    if not replay.store_hit:
        fail("second sharded run did not hit the run store")
    if replay.generalized.cell_rows != sharded.generalized.cell_rows:
        fail("store replay diverged from the original sharded output")

    print(
        "OK: sharded output bit-identical to unsharded, within merge bound "
        f"(stars delta {stars_delta} <= {stars_bound}), store replay identical"
    )


if __name__ == "__main__":
    main()
