#!/usr/bin/env bash
# CI entry point: lint gate, tier-1 test suite, sharded-engine smoke,
# streaming smoke, server load smoke, chaos smoke and a fast performance
# smoke check.
#
#   scripts/ci.sh
#
# The sharded-engine smoke (scripts/shard_smoke.py) checks that a 4-shard
# engine run is bit-identical to the unsharded run on a fixed seed and stays
# within the documented suppression merge bound.
#
# The streaming smoke (scripts/streaming_smoke.py) anonymizes a 50k-row
# synthetic CSV through the bounded-memory CSV->CSV pipeline under a capped
# chunk size, verifies the published file l-diverse with an independent
# streaming checker, and proves a fresh-process rerun is served from the
# persistent run store.
#
# The privacy smoke (scripts/privacy_smoke.py) anonymizes the synthetic
# dataset under entropy-l and recursive-cl (in-memory and streaming),
# verifies each output with the matching repro.privacy.principles checker,
# proves the default FrequencyLDiversity path is bit-identical to the
# pre-refactor seed output at the fixed seed (pinned SHA-256 digests), and
# asserts cache-key separation between specs sharing an l.
#
# The server smoke (scripts/load_smoke.py) boots `ldiversity serve` in a
# subprocess and hammers it with 8 concurrent clients (200 jobs): every
# returned table must be independently l-diverse, repeated submissions must
# be served from the persistent run store, a slice of jobs submitted under
# non-default privacy specs must verify with the matching checkers, a burst
# past the queue cap must produce 429 + Retry-After, a 10^5-row job's CSV
# served off its result artifact must be byte-identical to an independent
# in-script render (a repeat fetch must hit the render cache), and the
# server must exit 0 on SIGTERM.
#
# The chaos smoke (scripts/chaos_smoke.py) boots the server under a
# fixed-seed fault plan (workers killed every Nth job, a poison seed, delays
# that trip the per-job timeout), streams ~100 jobs through it, SIGKILLs the
# whole server process group mid-stream and restarts it on the same port and
# workspace.  Every job must reach a terminal state (replayed jobs included),
# the poison job must be quarantined, every done output must re-verify
# against its PrivacySpec, and all four recovery counters (retries,
# pool_restarts, timeouts, quarantined) must have moved.  The fault schedule
# is deterministic, so the run is bounded (~10-30s).
#
# The scale smoke (scripts/scale_smoke.py) runs a 10^5-row synthetic table
# through the memory-mapped column-store engine path under capped chunks and
# asserts (a) bit-identical published output vs the unsharded in-memory run,
# (b) a repeat run against the same column store warm-starts from the
# persisted order.npy sort permutation (no sort span in its span tree),
# (c) the always-on span recorder (measured per-span cost x spans per run)
# plus the tree hand-off and registry mutations of a served job cost < 2%
# of the benched run, and (d) the parallel
# encode/publish kernels are bit-identical to their serial oracles and
# >= 2x faster.  Every registered metric is pinned against its *_reference
# oracle, on both the group form and explicit cells, by
# tests/metrics/test_fused.py.
#
# The perf check re-times the figure-6 benchmark (well under a minute) and fails when it has regressed more than 2x against
# the committed BENCH_fig6.json baseline.  Regenerate the baseline after an
# intentional performance change with:
#
#   PYTHONPATH=src python scripts/bench_baseline.py --output BENCH_fig6.json
#
# Regenerate the large-n trajectory (BENCH_scale.json, also consumed by the
# execution planner's cost model) with:
#
#   PYTHONPATH=src python scripts/bench_scale.py --output BENCH_scale.json
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== lint: ruff check =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src tests scripts
else
    echo "ruff not installed; skipping lint gate"
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== sharded-engine smoke: 4 shards bit-identical to unsharded =="
python scripts/shard_smoke.py

echo "== streaming smoke: 50k-row CSV->CSV under capped chunk size =="
python scripts/streaming_smoke.py

echo "== privacy smoke: spec runs + pre-refactor bit-identity =="
python scripts/privacy_smoke.py

echo "== server smoke: 200 jobs / 8 clients against ldiversity serve =="
python scripts/load_smoke.py --clients 8 --jobs 200

echo "== chaos smoke: injected crashes + SIGKILL restart =="
python scripts/chaos_smoke.py

echo "== scale smoke: mmap bit-identity, warm start, overheads at 10^5 rows =="
python scripts/scale_smoke.py

echo "== perf smoke: bench_fig6 vs committed baseline =="
python scripts/bench_baseline.py --check BENCH_fig6.json --repeats 3 --tolerance 2.0
