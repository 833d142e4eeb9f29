#!/usr/bin/env bash
# CI entry point:
#
#   scripts/ci.sh
#
# Steps, in order (each smoke script's docstring says what it proves):
#
#   lint             ruff check over src, tests and scripts (skipped when
#                    ruff is not installed)
#   tier-1           the pytest suite
#   benchmarks       the figure-shape, hardness and ablation checks under
#                    benchmarks/ (bench_*.py), timing disabled
#   examples         every examples/*.py runs to a zero exit
#   shard smoke      a 4-shard engine run is bit-identical to the unsharded
#                    one and within the suppression merge bound
#   streaming smoke  50k-row CSV->CSV under a capped chunk size, verified
#                    independently; a rerun is served from the run store
#   privacy smoke    entropy-l and recursive-cl outputs pass independent
#                    checkers; the default path matches pinned SHA-256
#                    digests; specs sharing an l never share a cache key
#   load smoke       200 jobs from 8 clients against `ldiversity serve`:
#                    l-diverse results, store hits, a run store of whole
#                    records only (no temp dirs, within its cap, each one
#                    reopens), 429 + Retry-After, artifact CSVs
#                    byte-identical to an independent render, exit 0 on
#                    SIGTERM
#   chaos smoke      a SIGKILL during an `anonymize --mmap` conversion
#                    leaves the old column store intact and a rerun succeeds;
#                    worker kills, a poison job, job timeouts and a SIGKILL
#                    restart: every job ends terminal, the poison job is
#                    quarantined, every recovery counter moves
#   scale smoke      10^5 rows: mmap bit-identity, order.npy warm start,
#                    span-recorder overhead < 2%, parallel kernels
#                    bit-identical to their serial oracles and >= 2x faster
#   perf smoke       the figure-6 benchmark within 2x of BENCH_fig6.json
#
# Regenerate the baselines after an intentional performance change
# (BENCH_scale.json also calibrates the execution planner) with:
#
#   PYTHONPATH=src python scripts/bench_baseline.py --output BENCH_fig6.json
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

echo "== benchmarks: figure-shape and ablation checks (timing disabled) =="
python -m pytest -q -o python_files='bench_*.py' benchmarks --benchmark-disable

echo "== examples: every examples/*.py exits 0 =="
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done

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
