"""``src/`` holds one implementation of each check; the oracles live in ``tests/``.

A pure-Python ``*_reference`` twin of a production path is a second copy
that only the tests compare against, so it belongs beside them
(``tests/group_oracles.py``, ``tests/metric_oracles.py``,
``tests/kernel_oracles.py``, ``tests/principle_oracles.py``,
``tests/tp_oracle.py``).  And the package must never depend on its tests.
This test parses every module under ``src/repro`` and names each function or
method called ``*_reference`` and each import of ``tests``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent


def _offences(path: Path) -> list[str]:
    return _offences_in(path.read_text(), str(path))


def _imports_tests(name: str | None) -> bool:
    return name is not None and name.split(".")[0] == "tests"


def _offences_in(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.endswith("_reference"):
                found.append(f"{filename}:{node.lineno}: def {node.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _imports_tests(alias.name):
                    found.append(f"{filename}:{node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and _imports_tests(node.module):
                found.append(f"{filename}:{node.lineno}: from {node.module} import")
    return found


def test_src_defines_no_reference_and_imports_no_tests():
    modules = sorted(ROOT.rglob("*.py"))
    scanned = {path.relative_to(ROOT).parts[0] for path in modules}
    assert {"baselines", "core", "dataset", "metrics", "privacy"} <= scanned
    offences = [offence for path in modules for offence in _offences(path)]
    assert offences == []


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("def star_count_reference(g):\n    pass\n", ["m.py:1: def star_count_reference"]),
        (
            "class Context:\n    @classmethod\n    def build_reference(cls):\n        pass\n",
            ["m.py:3: def build_reference"],
        ),
        (
            "import numpy\nfrom tests.group_oracles import scan_reference\n",
            ["m.py:2: from tests.group_oracles import"],
        ),
        ("import tests.tp_oracle as oracle\n", ["m.py:1: import tests.tp_oracle"]),
    ],
    ids=["function", "method", "from-tests-import", "import-tests"],
)
def test_guard_names_each_offence(source, expected):
    assert _offences_in(source, "m.py") == expected


@pytest.mark.parametrize(
    "source",
    [
        "reference_count = 3\n",
        "def reference_rows():\n    pass\n",
        "from . import tests_helper\nimport testsuite\n",
        "from repro.core import grouping\n",
    ],
    ids=["variable", "reference-prefix", "similar-module-names", "package-import"],
)
def test_guard_passes_other_names(source):
    assert _offences_in(source, "m.py") == []
