"""Workspace directories: where the service layer keeps persistent state.

A :class:`Workspace` is a directory holding everything the job layer
persists between processes:

* ``runs/`` — the :class:`~repro.service.store.RunStore` of memoized
  anonymization runs, one directory per record (read through by the
  engine's result cache);
* ``jobs.jsonl`` — the :class:`~repro.service.jobs.JobService` ledger of
  submitted jobs;
* ``tmp/`` — spill space for the streaming pipeline's per-shard buffers;
* ``results/`` — per-job published-output artifacts
  (:class:`~repro.engine.columnstore.ResultArtifact` directories) the
  server streams ``/result`` responses from.

Every file and directory here that is rewritten rather than appended to is
published through :func:`~repro.engine.columnstore.publish`: built at a
sibling ``.<name>.tmp-<pid>-*`` path, synced to disk and renamed into place.
A temp left by a killed process is deleted by the next publish of its name.

Resolution order for the root directory: an explicit path, then the
``REPRO_WORKSPACE`` environment variable, then ``~/.cache/ldiversity``.
The directory is created on first use.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.service.store import RunStore

__all__ = ["Workspace", "default_workspace_root"]

_ENV_VAR = "REPRO_WORKSPACE"
_DEFAULT_ROOT = "~/.cache/ldiversity"


def default_workspace_root() -> Path:
    """The workspace root used when none is given explicitly."""
    return Path(os.environ.get(_ENV_VAR, _DEFAULT_ROOT)).expanduser()


class Workspace:
    """A directory tree holding the service layer's persistent state."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_workspace_root()
        self.root.mkdir(parents=True, exist_ok=True)

    @property
    def runs_path(self) -> Path:
        return self.root / "runs"

    @property
    def jobs_path(self) -> Path:
        return self.root / "jobs.jsonl"

    @property
    def tmp_dir(self) -> Path:
        path = self.root / "tmp"
        path.mkdir(parents=True, exist_ok=True)
        return path

    @property
    def results_dir(self) -> Path:
        path = self.root / "results"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def run_store(self, max_entries: int = 256) -> RunStore:
        """Open (creating if needed) the workspace's persistent run store,
        deleting a legacy JSONL store so its runs are recomputed."""
        (self.root / "runs.jsonl").unlink(missing_ok=True)
        return RunStore(self.runs_path, max_entries=max_entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workspace({str(self.root)!r})"
