"""Per-layer performance gate: each stage of a run's span tree against a budget.

Runs ``Engine.run`` on seeded SAL tables (``CensusConfig.scaled(0.24)``,
seed 7) at 10^5 and 10^6 rows.  The ops cover TP and TP+ at l=6, TP at l=10
(which reaches phase two) and one two-shard TP+ run with the ``kl`` metric
(split, shards, merge and metrics).  A *stage* is the ``/``-joined path of
span names from the root, e.g. ``run/anonymize/phase2``; spans that share a
path, such as the shards of one run, are summed.  A stage's seconds are its
self time (its span minus its children), the minimum over ``REPEATS`` runs.

Check mode (the default) compares every stage with its budget in
``BENCH_layers.json`` and exits 1 when a stage is over budget, a budgeted
stage is missing from its run, or a run has a stage with no budget::

    PYTHONPATH=src python scripts/layer_gate.py

``--write`` measures again and rewrites the budgets, ``BUDGET_RATIO`` x
the measured seconds + ``BUDGET_SLACK`` each::

    PYTHONPATH=src python scripts/layer_gate.py --write
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from repro.dataset.synthetic import CensusConfig, make_sal
from repro.engine import Engine, RunPlan, TableSource
from repro.engine.cache import ResultCache
from repro.obs.trace import Span

BUDGETS = Path(__file__).resolve().parents[1] / "BENCH_layers.json"
SEED = 7
QI_SCALE = 0.24
REPEATS = 3
#: A budget is this multiple of the recorded seconds ...
BUDGET_RATIO = 1.6
#: ... plus this many seconds, which absorbs scheduler jitter on tiny stages.
BUDGET_SLACK = 0.05

_UNSHARDED = {"shards": 1, "workers": 1}
#: op name -> (rows, QI columns kept, RunPlan keywords).  At 10^5 rows TP
#: reaches phase two only on the four-QI projection (figure 6's tables);
#: there the phase takes milliseconds, so a regression of a fixed size shows
#: far above the noise of the 10^6-row phase two.
OPS: dict[str, tuple[int, int, dict]] = {
    "tp-l6-1e5": (10**5, 7, {"algorithm": "TP", "l": 6, **_UNSHARDED}),
    "tpplus-l6-1e5": (10**5, 7, {"algorithm": "TP+", "l": 6, **_UNSHARDED}),
    "tpplus-l6-s2-1e5": (
        10**5,
        7,
        {"algorithm": "TP+", "l": 6, "shards": 2, "workers": 1, "metrics": ("kl",)},
    ),
    "tp-l10-d4-1e5": (10**5, 4, {"algorithm": "TP", "l": 10, **_UNSHARDED}),
    "tpplus-l6-1e6": (10**6, 7, {"algorithm": "TP+", "l": 6, **_UNSHARDED}),
    "tp-l10-1e6": (10**6, 7, {"algorithm": "TP", "l": 10, **_UNSHARDED}),
}


def self_seconds(node: Span) -> float:
    """``node``'s seconds minus its children's (none of the ops here fans
    out to a pool, so children never overlap)."""
    return max(node.seconds - sum(child.seconds for child in node.children), 0.0)


def stage_seconds(root: Span) -> dict[str, float]:
    """Self seconds per stage path of one run's tree."""
    stages: dict[str, float] = {}

    def visit(node: Span, prefix: str) -> None:
        path = prefix + node.name
        stages[path] = stages.get(path, 0.0) + self_seconds(node)
        for child in node.children:
            visit(child, path + "/")

    visit(root, "")
    return stages


def check(measured: dict[str, dict[str, float]], budgets: dict[str, dict]) -> list[str]:
    """Every failure of ``measured`` op stages against ``budgets`` (empty: pass)."""
    failures = []
    for op in sorted(set(measured) | set(budgets)):
        seconds = measured.get(op, {})
        limits = budgets.get(op, {})
        for stage in sorted(set(seconds) | set(limits)):
            if stage not in seconds:
                failures.append(f"{op} {stage}: budgeted but missing from the run")
            elif stage not in limits:
                failures.append(f"{op} {stage}: {seconds[stage]:.4f}s has no budget")
            elif seconds[stage] > limits[stage]["budget"]:
                failures.append(
                    f"{op} {stage}: {seconds[stage]:.4f}s over its "
                    f"{limits[stage]['budget']:.4f}s budget"
                )
    return failures


def measure() -> dict[str, dict[str, float]]:
    """Per op, the minimum over ``REPEATS`` runs of each stage's self seconds."""
    config = CensusConfig.scaled(QI_SCALE)
    full = {n: make_sal(n, seed=SEED, config=config) for n in {n for n, _, _ in OPS.values()}}
    best: dict[str, dict[str, float]] = {op: {} for op in OPS}
    for _ in range(REPEATS):
        for op, (n, d, keywords) in OPS.items():
            # A fresh Table per run: the grouping context is cached on the
            # table, and a warm one would skip the encode stage.
            table = full[n].project(full[n].schema.qi_names[:d])
            plan = RunPlan(source=TableSource(table), use_cache=False, **keywords)
            report = Engine(cache=ResultCache()).run(plan)
            for stage, seconds in stage_seconds(report.trace).items():
                best[op][stage] = min(seconds, best[op].get(stage, seconds))
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"measure and rewrite {BUDGETS.name}"
    )
    arguments = parser.parse_args()
    measured = measure()
    if arguments.write:
        payload = {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "rule": f"budget = {BUDGET_RATIO} x seconds + {BUDGET_SLACK}s",
            "ops": {
                op: {
                    stage: {
                        "seconds": round(seconds, 6),
                        "budget": round(BUDGET_RATIO * seconds + BUDGET_SLACK, 6),
                    }
                    for stage, seconds in sorted(stages.items())
                }
                for op, stages in measured.items()
            },
        }
        BUDGETS.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"budgets for {len(measured)} ops written to {BUDGETS}")
        return 0
    budgets = json.loads(BUDGETS.read_text())["ops"]
    for op, stages in measured.items():
        for stage, seconds in sorted(stages.items()):
            limit = budgets.get(op, {}).get(stage, {}).get("budget")
            shown = "none" if limit is None else f"{limit:.4f}s"
            print(f"{op:<18} {stage:<44} {seconds:.4f}s  budget {shown}")
    failures = check(measured, budgets)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"OK: {sum(map(len, measured.values()))} stages within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
