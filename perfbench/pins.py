"""Stars pinned per op and seed, scoped to the code under test.

A run's published stars must repeat exactly: every run of the same code at
the same seed publishes as many suppressed cells per op.  Pins are kept per
code version (:func:`code_version`, a hash of ``src/`` and the committed
calibration files), so runs of two commits in one checkout never hold each
other to their counts; a difference between commits shows in
``stars_per_row`` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


class PinError(Exception):
    """An op published another number of stars than its pin."""


def code_version(root: Path) -> str:
    """A short hash of every file under ``src/`` and the ``BENCH_*.json``
    calibration files the planner reads (byte caches excluded)."""
    digest = hashlib.sha256()
    files = [path for path in (root / "src").rglob("*") if path.is_file()]
    files += list(root.glob("BENCH_*.json"))
    for path in sorted(files):
        if "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class Pins:
    """Stars per op, pinned the first time this code publishes them.

    Pins persist in one file per code version, so every later run at the
    same seed with the same code must publish exactly as many stars; within
    a run, repeated ops are held to the same count.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.values = json.loads(path.read_text())
        except (OSError, ValueError):
            self.values = {}

    def check(self, key: str, stars: int) -> None:
        pinned = self.values.setdefault(key, stars)
        if pinned != stars:
            raise PinError(f"{key}: {stars} stars, pinned at {pinned}")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        partial = self.path.with_name(self.path.name + ".partial")
        partial.write_text(json.dumps(self.values, indent=1, sort_keys=True))
        os.replace(partial, self.path)
