"""The algorithm packages hold no process-global mutable switch.

Concurrent jobs share one process, so a module-level value that code
rebinds at run time (a ``global`` statement) or a fork hook that resets one
(``os.register_at_fork``) decides one job's behaviour by what another job
did.  This test parses every module of the algorithm packages and names
each such statement it finds.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGES = ("core", "dataset", "baselines", "metrics")


def _offences(path: Path) -> list[str]:
    return _offences_in(path.read_text(), str(path))


def _offences_in(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Global):
            found.append(f"{filename}:{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "register_at_fork":
                found.append(f"{filename}:{node.lineno}: register_at_fork call")
    return found


def test_algorithm_packages_have_no_global_or_fork_hook():
    root = Path(repro.__file__).resolve().parent
    modules = [path for package in PACKAGES for path in sorted((root / package).rglob("*.py"))]
    assert modules
    offences = [offence for path in modules for offence in _offences(path)]
    assert offences == []


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("_POOL = None\ndef pool():\n    global _POOL\n", ["m.py:3: global _POOL"]),
        (
            "import os\nos.register_at_fork(after_in_child=print)\n",
            ["m.py:2: register_at_fork call"],
        ),
        (
            "from os import register_at_fork\nregister_at_fork(before=print)\n",
            ["m.py:2: register_at_fork call"],
        ),
    ],
    ids=["global-statement", "os-attribute-call", "imported-name-call"],
)
def test_guard_names_each_offence(source, expected):
    assert _offences_in(source, "m.py") == expected


@pytest.mark.parametrize(
    "source",
    [
        "THRESHOLD = 1 << 18\n",
        "def outer():\n    count = 0\n"
        "    def inner():\n        nonlocal count\n        count += 1\n",
        "import os\nos.getpid()\n",
    ],
    ids=["module-constant", "nonlocal-statement", "other-os-call"],
)
def test_guard_passes_module_constants_and_closures(source):
    assert _offences_in(source, "m.py") == []
