"""Per-layer performance gate: each stage of a run's span tree against a budget.

Runs ``Engine.run`` on seeded SAL tables: the bench tables
(``CensusConfig.scaled(0.24)``, seed 7) at 10^5 and 10^6 rows, and the paper
table (600,000 rows at the paper's domains, ``CensusConfig.scaled(1.0)``,
seed 1).  The ops cover TP and TP+ at l=6, TP at l=10 (which reaches phase
two), one two-shard TP+ run with the ``kl`` metric (split, shards, merge and
metrics) and TP at l=6 on the paper table, where most QI-groups hold one or
two rows and phase one shaves almost all of them.  A *stage* is the
``/``-joined path of span names from the root, e.g. ``run/anonymize/phase2``;
spans that share a path, such as the shards of one run, are summed.  A
stage's seconds are its self time (its span minus its children), the minimum
over ``REPEATS`` runs.

Phase spans also carry exact work counters (``groups_shaved``,
``groups_materialized``, ``moved``, ``iterations``,
``candidates_discarded``).  Those are gated for equality: a work regression
too small for a time budget still changes a count.

Check mode (the default) compares every stage with its budget in
``BENCH_layers.json`` and every counter with its recorded value, and exits 1
when a stage is over budget, a budgeted stage is missing from its run, a run
has a stage with no budget, or a counter differs from its record or between
repeats::

    PYTHONPATH=src python scripts/layer_gate.py

``--write`` measures again, rewrites every counter and re-records budgets,
``BUDGET_RATIO`` x the measured seconds + ``BUDGET_SLACK`` each.  A budget
only tightens: a stage whose new budget would be looser keeps its old one
(to loosen one, or to re-record only some stages, edit those entries by
hand and say why)::

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
REPEATS = 3
#: A budget is this multiple of the recorded seconds ...
BUDGET_RATIO = 1.6
#: ... plus this many seconds, which absorbs scheduler jitter on tiny stages.
BUDGET_SLACK = 0.05

_UNSHARDED = {"shards": 1, "workers": 1}
#: table name -> (rows, seed, ``CensusConfig.scaled`` factor).
TABLES: dict[str, tuple[int, int, float]] = {
    "bench-1e5": (10**5, 7, 0.24),
    "bench-1e6": (10**6, 7, 0.24),
    "paper": (600_000, 1, 1.0),
}
#: op name -> (table, QI columns kept, RunPlan keywords).  At 10^5 rows TP
#: reaches phase two only on the four-QI projection (figure 6's tables);
#: there the phase takes milliseconds, so a regression of a fixed size shows
#: far above the noise of the 10^6-row phase two.
OPS: dict[str, tuple[str, int, dict]] = {
    "tp-l6-1e5": ("bench-1e5", 7, {"algorithm": "TP", "l": 6, **_UNSHARDED}),
    "tpplus-l6-1e5": ("bench-1e5", 7, {"algorithm": "TP+", "l": 6, **_UNSHARDED}),
    "tpplus-l6-s2-1e5": (
        "bench-1e5",
        7,
        {"algorithm": "TP+", "l": 6, "shards": 2, "workers": 1, "metrics": ("kl",)},
    ),
    "tp-l10-d4-1e5": ("bench-1e5", 4, {"algorithm": "TP", "l": 10, **_UNSHARDED}),
    "tpplus-l6-1e6": ("bench-1e6", 7, {"algorithm": "TP+", "l": 6, **_UNSHARDED}),
    "tp-l10-1e6": ("bench-1e6", 7, {"algorithm": "TP", "l": 10, **_UNSHARDED}),
    "tp-l6-paper": ("paper", 7, {"algorithm": "TP", "l": 6, **_UNSHARDED}),
}
#: Spans whose integer attributes are exact work counters.
COUNTED_SPANS = ("phase1", "phase2", "phase3")


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


def stage_counters(root: Span) -> dict[str, dict[str, int]]:
    """The work counters per stage path of one run's tree (summed like
    seconds over spans that share a path)."""
    counters: dict[str, dict[str, int]] = {}

    def visit(node: Span, prefix: str) -> None:
        path = prefix + node.name
        if node.name in COUNTED_SPANS:
            totals = counters.setdefault(path, {})
            for name, value in node.attributes.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    totals[name] = totals.get(name, 0) + value
        for child in node.children:
            visit(child, path + "/")

    visit(root, "")
    return counters


def check_counters(
    measured: dict[str, dict[str, dict[str, int]]],
    recorded: dict[str, dict[str, dict[str, int]]],
) -> list[str]:
    """Every counter of ``measured`` that differs from ``recorded`` (empty: pass)."""
    failures = []
    for op in sorted(set(measured) | set(recorded)):
        counted = measured.get(op, {})
        expected = recorded.get(op, {})
        for stage in sorted(set(counted) | set(expected)):
            got = counted.get(stage, {})
            want = expected.get(stage, {})
            for name in sorted(set(got) | set(want)):
                if got.get(name) != want.get(name):
                    failures.append(
                        f"{op} {stage} {name}: counted {got.get(name)}, "
                        f"recorded {want.get(name)}"
                    )
    return failures


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


def measure() -> tuple[dict[str, dict[str, float]], dict[str, dict], list[str]]:
    """Per op, the minimum over ``REPEATS`` runs of each stage's self seconds,
    the counters of the first run, and a failure per op whose counters
    differed between runs."""
    full = {
        name: make_sal(rows, seed=seed, config=CensusConfig.scaled(scale))
        for name, (rows, seed, scale) in TABLES.items()
    }
    best: dict[str, dict[str, float]] = {op: {} for op in OPS}
    counters: dict[str, dict] = {}
    unstable: list[str] = []
    for _ in range(REPEATS):
        for op, (name, d, keywords) in OPS.items():
            # A fresh Table per run: the grouping context is cached on the
            # table, and a warm one would skip the encode stage.
            table = full[name].project(full[name].schema.qi_names[:d])
            plan = RunPlan(source=TableSource(table), use_cache=False, **keywords)
            report = Engine(cache=ResultCache()).run(plan)
            for stage, seconds in stage_seconds(report.trace).items():
                best[op][stage] = min(seconds, best[op].get(stage, seconds))
            counted = stage_counters(report.trace)
            if counters.setdefault(op, counted) != counted and op not in unstable:
                unstable.append(op)
    return best, counters, [f"{op}: counters differ between repeats" for op in unstable]


def record(
    measured: dict[str, dict[str, float]], previous: dict[str, dict]
) -> dict[str, dict]:
    """Budgets for ``measured``, never looser than a ``previous`` one."""
    ops: dict[str, dict] = {}
    for op, seconds_by_stage in measured.items():
        ops[op] = {}
        for stage, seconds in sorted(seconds_by_stage.items()):
            fresh = {
                "seconds": round(seconds, 6),
                "budget": round(BUDGET_RATIO * seconds + BUDGET_SLACK, 6),
            }
            old = previous.get(op, {}).get(stage)
            if old is not None and old["budget"] < fresh["budget"]:
                fresh = old
            ops[op][stage] = fresh
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"measure and rewrite {BUDGETS.name}"
    )
    arguments = parser.parse_args()
    measured, counters, unstable = measure()
    recorded = json.loads(BUDGETS.read_text())
    if arguments.write:
        if unstable:
            for failure in unstable:
                print(f"FAIL: {failure}")
            return 1
        payload = {
            "machine": platform.machine(),
            "python": platform.python_version(),
            "rule": f"budget = {BUDGET_RATIO} x seconds + {BUDGET_SLACK}s",
            "ops": record(measured, recorded["ops"]),
            "counters": counters,
        }
        BUDGETS.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"budgets for {len(measured)} ops written to {BUDGETS}")
        return 0
    budgets = recorded["ops"]
    for op, stages in measured.items():
        for stage, seconds in sorted(stages.items()):
            limit = budgets.get(op, {}).get(stage, {}).get("budget")
            shown = "none" if limit is None else f"{limit:.4f}s"
            print(f"{op:<18} {stage:<44} {seconds:.4f}s  budget {shown}")
        for stage, values in sorted(counters.get(op, {}).items()):
            shown = " ".join(f"{name}={value}" for name, value in sorted(values.items()))
            print(f"{op:<18} {stage:<44} {shown}")
    failures = (
        check(measured, budgets)
        + check_counters(counters, recorded["counters"])
        + unstable
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(
        f"OK: {sum(map(len, measured.values()))} stages within budget, "
        f"{sum(len(v) for c in counters.values() for v in c.values())} counters exact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
