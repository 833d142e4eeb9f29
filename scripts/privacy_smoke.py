"""CI smoke check for the PrivacySpec refactor.

Three guarantees, each cheap enough for every CI run:

1. **Bit-identity of the default path** — the frequency-l pipeline must
   produce byte-for-byte the same published CSV as the pre-refactor code at
   a fixed seed.  The expected SHA-256 digests below were captured from the
   seed code *before* the `PrivacySpec` refactor landed; both the unsharded
   and the 4-shard engine paths are pinned, and the explicit
   ``FrequencyLDiversity`` spec must match the bare ``l=`` sugar exactly.

2. **Spec-targeted anonymization** — the synthetic dataset is anonymized
   under ``entropy-l`` and ``recursive-cl`` (in-memory and streaming) and
   each output is verified with the *matching independent checker* from
   :mod:`repro.privacy.principles` — not the spec's own ``check`` — so the
   enforcement pass is audited by code that knows nothing about it.

3. **Cache-key separation** — a frequency-l run followed by an entropy-l
   run of the same workload must never share a cache entry (the PR's
   regression-style key bugfix).

Exit code 0 on success, 1 on any violation.  The temp directory of published
CSVs is removed when the smoke passes and kept, with its path printed, when
it fails::

    PYTHONPATH=src python scripts/privacy_smoke.py
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

from repro.engine import CsvSink, CsvSource, Engine, ResultCache, RunPlan, SyntheticSource
from repro.privacy.principles import (
    satisfies_entropy_l_diversity,
    satisfies_recursive_cl_diversity,
)
from repro.privacy.spec import (
    EntropyLDiversity,
    FrequencyLDiversity,
    RecursiveCLDiversity,
)
from repro.service import stream_anonymize, verify_csv_satisfies

#: The fixed workload every check runs against.
N, SEED, DIMENSION = 2_500, 7, 3

#: SHA-256 of the published CSV produced by the pre-refactor seed code.
GOLDEN_UNSHARDED_TPP_L2 = (
    "7a7435c055c228117ad6c6751b61215a11c0d73a14ed5210c0c9c85c729eeb67"
)
GOLDEN_SHARDED4_TP_L3 = (
    "f47ec48c6beced47e870e3244ce3c13c7d2f879603101152ba7d235c7f5184ad"
)


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def _source() -> SyntheticSource:
    return SyntheticSource("SAL", n=N, seed=SEED, dimension=DIMENSION)


def _run(tmp: Path, name: str, **plan_fields):
    engine = Engine(cache=ResultCache())
    report = engine.run(RunPlan(source=_source(), **plan_fields))
    path = tmp / f"{name}.csv"
    with CsvSink(str(path)) as sink:
        sink.write_table(report.generalized)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return report, digest, path


def run(tmp: Path) -> None:

    # 1. bit-identity of the default frequency path, unsharded + sharded
    _report, digest, _path = _run(tmp, "unsharded", algorithm="TP+", l=2, shards=1)
    if digest != GOLDEN_UNSHARDED_TPP_L2:
        fail(
            "unsharded TP+ l=2 output drifted from the pre-refactor seed "
            f"(got {digest})"
        )
    _report, sharded_digest, _path = _run(
        tmp, "sharded", algorithm="TP", l=3, shards=4, workers=1
    )
    if sharded_digest != GOLDEN_SHARDED4_TP_L3:
        fail(
            "4-shard TP l=3 output drifted from the pre-refactor seed "
            f"(got {sharded_digest})"
        )
    _report, explicit_digest, _path = _run(
        tmp, "explicit", algorithm="TP+", privacy=FrequencyLDiversity(2), shards=1
    )
    if explicit_digest != GOLDEN_UNSHARDED_TPP_L2:
        fail("explicit FrequencyLDiversity(2) differs from the bare l=2 sugar")
    print(f"bit-identity: default path matches the pre-refactor seed ({digest[:12]}…)")

    # 2. spec-targeted runs, each audited by the matching principles checker
    entropy = EntropyLDiversity(2.0)
    report, _digest, entropy_csv = _run(
        tmp, "entropy", algorithm="TP+", privacy=entropy
    )
    if not report.verified or not satisfies_entropy_l_diversity(
        report.generalized, entropy.l
    ):
        fail("entropy-l engine output failed satisfies_entropy_l_diversity")

    recursive = RecursiveCLDiversity(0.5, 2)  # c <= 1: forces the repair pass
    report, _digest, _path = _run(
        tmp, "recursive", algorithm="TP", privacy=recursive
    )
    if not satisfies_recursive_cl_diversity(report.generalized, recursive.c, recursive.l):
        fail("recursive-cl engine output failed satisfies_recursive_cl_diversity")
    if report.enforcement_merges == 0:
        fail("recursive-cl at c=0.5 should have exercised the enforcement pass")
    print(
        f"specs: entropy-l and recursive-cl verified by the principles checkers "
        f"({report.enforcement_merges} repair merges on recursive-cl)"
    )

    # ... and through the streaming CSV->CSV pipeline
    input_csv = tmp / "input.csv"
    table = _source().load()
    qi = table.schema.qi_names
    sa = table.schema.sensitive.name
    table.to_csv(str(input_csv))
    streamed_csv = tmp / "streamed-entropy.csv"
    stream_report = stream_anonymize(
        CsvSource(str(input_csv), qi, sa),
        streamed_csv,
        algorithm="TP",
        privacy=entropy,
        shards=2,
        chunk_rows=500,
    )
    if not verify_csv_satisfies(streamed_csv, qi, sa, entropy):
        fail("streamed entropy-l output failed verify_csv_satisfies")
    if not verify_csv_satisfies(entropy_csv, qi, sa, entropy):
        fail("in-memory entropy-l CSV failed verify_csv_satisfies")
    print(
        f"streaming: {stream_report.n} rows through "
        f"{len(stream_report.shard_sizes)} shard(s) under {stream_report.privacy}, "
        "re-verified from the published file"
    )

    # 3. cache-key separation between specs sharing an l
    engine = Engine(cache=ResultCache())
    engine.run(RunPlan(source=_source(), algorithm="TP", l=2))
    entropy_report = engine.run(
        RunPlan(source=_source(), algorithm="TP", privacy=EntropyLDiversity(2.0))
    )
    if entropy_report.cache_hit:
        fail("entropy-l run replayed the frequency-l cache entry (key collision)")
    replay = engine.run(RunPlan(source=_source(), algorithm="TP", l=2))
    if not replay.cache_hit:
        fail("frequency-l rerun missed its own cache entry")
    print("cache: specs with equal l never share an entry")

    print("OK: privacy smoke passed")


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="privacy-smoke-"))
    try:
        run(tmp)
    except BaseException:
        print(f"outputs kept for inspection: {tmp}")
        raise
    shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
