"""``src/`` decodes input CSV rows in one place: :class:`CsvDecoder`.

Every table, store and streamed run reads its CSV through
``CsvDecoder.batches``; a second ``csv.reader`` or ``csv.DictReader`` over
input rows would be a second decoder whose domains, errors and speed could
drift from the first.  Two other readers are not decoders of input rows:
the server's upload-header check reads one header line, and
``verify_csv_satisfies`` audits a *published* file.  This test parses every
module under ``src/repro`` and names each use of ``csv.reader`` or
``csv.DictReader`` outside those three functions, however ``csv`` or the
reader was imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
READERS = {"reader", "DictReader"}
ALLOWED = {
    ("engine/sources.py", "CsvDecoder.batches"),
    ("server/app.py", "AnonymizationServer._upload_job"),
    ("service/streaming.py", "verify_csv_satisfies"),
}


def _aliases(tree: ast.AST) -> tuple[set[str], dict[str, str]]:
    """Local names bound to the ``csv`` module, and to its readers."""
    modules, readers = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                alias.asname or alias.name for alias in node.names if alias.name == "csv"
            }
        elif isinstance(node, ast.ImportFrom) and node.module == "csv" and node.level == 0:
            for alias in node.names:
                if alias.name in READERS:
                    readers[alias.asname or alias.name] = alias.name
    return modules, readers


def _uses_in(source: str) -> list[tuple[int, str, str]]:
    """``(line, enclosing qualified name, reader)`` of every reader use."""
    tree = ast.parse(source)
    modules, readers = _aliases(tree)
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in READERS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, scope or "<module>", node.attr))
        elif isinstance(node, ast.Name) and node.id in readers:
            found.append((node.lineno, scope or "<module>", readers[node.id]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def _offences_in(source: str, filename: str) -> list[str]:
    return [
        f"{filename}:{line}: {scope}: csv.{reader}"
        for line, scope, reader in _uses_in(source)
        if (filename, scope) not in ALLOWED
    ]


def test_src_reads_input_csv_rows_only_through_csv_decoder():
    modules = sorted(ROOT.rglob("*.py"))
    offences, allowed = [], set()
    for path in modules:
        name = path.relative_to(ROOT).as_posix()
        source = path.read_text()
        offences += _offences_in(source, name)
        allowed |= {(name, scope) for _, scope, _ in _uses_in(source)} & ALLOWED
    assert offences == []
    # Every allowance is still in use, so none outlives its reader.
    assert allowed == ALLOWED


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        (
            "import csv\ndef load(h):\n    return list(csv.DictReader(h))\n",
            ["m.py:3: load: csv.DictReader"],
        ),
        (
            "from csv import reader\nclass T:\n    def rows(self, h):\n        return reader(h)\n",
            ["m.py:4: T.rows: csv.reader"],
        ),
        (
            "def count(h):\n    import csv as _csv\n    return sum(1 for _ in _csv.reader(h))\n",
            ["m.py:3: count: csv.reader"],
        ),
        (
            "from csv import DictReader as Rows\nrows = Rows(open('f'))\n",
            ["m.py:2: <module>: csv.DictReader"],
        ),
    ],
    ids=["dict-reader-call", "bare-imported-reader", "aliased-module", "aliased-name"],
)
def test_guard_names_each_reader(source, expected):
    assert _offences_in(source, "m.py") == expected


@pytest.mark.parametrize(
    "source",
    [
        "import csv\nwriter = csv.writer(open('f', 'w'))\nerror = csv.Error\n",
        "from repro.engine import sources\nsources.reader = 1\n",
        "def reader(h):\n    pass\n",
    ],
    ids=["writer-and-error", "other-module-attribute", "own-function-named-reader"],
)
def test_guard_passes_other_csv_names(source):
    assert _offences_in(source, "m.py") == []


def test_allowed_functions_pass():
    source = "import csv\nclass CsvDecoder:\n    def batches(self, h):\n        return csv.reader(h)\n"
    assert _offences_in(source, "engine/sources.py") == []
    assert _offences_in(source, "engine/other.py") == [
        "engine/other.py:4: CsvDecoder.batches: csv.reader"
    ]
