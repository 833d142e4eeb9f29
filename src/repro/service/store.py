"""Persistent run store: append-only JSONL memoization of anonymization runs.

The :class:`RunStore` supersedes the purely in-process LRU as the durable
tier of result caching: the engine's :class:`~repro.engine.cache.ResultCache`
reads through it, so figure sweeps and repeated CLI invocations reuse
results **across processes**.  Records are keyed exactly like the in-memory
cache — ``(fingerprint, algorithm, l, shards, seed, privacy)``, where
``privacy`` is the canonical privacy-spec token — and hold the *encoded*
generalization only.

**Key migration note:** the key has had three shapes.  The oldest was
``(fingerprint, algorithm, l, shards, backend, seed)``; the ``privacy``
component was appended when the scalar ``l`` grew into the
:class:`~repro.privacy.spec.PrivacySpec` hierarchy (two specs with equal
``l`` had collided on one record), and the ``backend`` component was
dropped when the pure-Python data plane stopped being a runtime choice.
:meth:`RunStore._parse` accepts only the current six-element shape, typed
element by element, so both legacy shapes — seven elements with a backend,
and six elements with a backend where the seed belongs — fail the check,
are counted in :attr:`RunStore.recovered` and are dropped by the next
compaction.  A store written before a migration simply recomputes on first
use; it never replays a record under a key it was not computed for.

Each record holds:

* one generalized cell row per QI-group (rows of a group share their
  representative by construction), with cells encoded as the integer code,
  ``"*"`` for a star, or ``{"s": [codes]}`` for a sub-domain;
* the per-row group ids, densely renumbered in first-occurrence order;
* the original run's anonymize seconds, shard sizes and phase reached.

Schema and sensitive values are *not* stored: a hit is rehydrated against
the caller's freshly-loaded source table, whose fingerprint already proved
it identical to the one the run was computed on.  That keeps records small
and sidesteps schema round-trip fidelity entirely.

The file format is append-only JSONL: one record per line, last write wins,
safe to append from concurrent processes (a torn trailing line is treated as
corrupt and skipped).  Corrupt or stale lines are counted, survive nothing,
and are dropped by the next compaction; eviction keeps the newest
``max_entries`` records and compacts the file in place.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING

from repro.dataset.generalized import STAR, GeneralizedTable
from repro.engine.cache import CachedRun, CacheKey
from repro.engine.registry import AlgorithmOutput

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataset.table import Table

__all__ = ["RunStore", "StoreError"]

#: Element types of a stored key: (fingerprint, algorithm, l, shards, seed,
#: privacy token).
_KEY_TYPES = (str, str, int, int, int, str)


class StoreError(Exception):
    """Raised when a run cannot be encoded for persistent storage."""


def _encode_cell(cell) -> object:
    if cell is STAR:
        return "*"
    if isinstance(cell, frozenset):
        return {"s": sorted(cell)}
    if isinstance(cell, (int,)):
        return int(cell)
    raise StoreError(f"cannot encode generalized cell {cell!r}")


def _decode_cell(encoded) -> object:
    if encoded == "*":
        return STAR
    if isinstance(encoded, dict):
        return frozenset(encoded["s"])
    return int(encoded)


def _encode_run(key: CacheKey, run: CachedRun) -> dict:
    generalized = run.output.generalized
    group_ids = generalized.group_ids
    dense: dict[int, int] = {}
    group_cells: list[list[object]] = []
    renumbered: list[int] = []
    for row, group_id in enumerate(group_ids):
        index = dense.get(group_id)
        if index is None:
            index = len(group_cells)
            dense[group_id] = index
            group_cells.append([_encode_cell(cell) for cell in generalized.row_cells(row)])
        renumbered.append(index)
    return {
        "key": list(key),
        "n": len(generalized),
        "group_cells": group_cells,
        "group_ids": renumbered,
        "anonymize_seconds": run.anonymize_seconds,
        "shard_sizes": list(run.shard_sizes),
        "phase_reached": run.output.phase_reached,
        "enforcement_merges": run.enforcement_merges,
    }


class RunStore:
    """Append-only JSONL store of memoized anonymization runs."""

    def __init__(self, path: str | Path, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._max_entries = max_entries
        self._records: OrderedDict[CacheKey, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.recovered = 0
        self._load()

    @property
    def path(self) -> Path:
        return self._path

    # --------------------------------------------------------------- file I/O

    def _load(self) -> None:
        if not self._path.exists():
            return
        with open(self._path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = self._parse(line)
                if record is None:
                    self.recovered += 1
                    continue
                key = tuple(record["key"])
                self._records[key] = record
                self._records.move_to_end(key)
        evicted = self._evict()
        if evicted or self.recovered:
            self._compact()

    @staticmethod
    def _parse(line: str) -> dict | None:
        """Parse one JSONL line; ``None`` for corrupt or malformed records."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict):
            return None
        key = record.get("key")
        # Exactly the current key shape; legacy shapes are dropped here (see
        # the migration note in the module docstring).
        if not isinstance(key, list) or len(key) != len(_KEY_TYPES):
            return None
        if not all(
            isinstance(part, kind) and not isinstance(part, bool)
            for part, kind in zip(key, _KEY_TYPES)
        ):
            return None
        group_cells = record.get("group_cells")
        group_ids = record.get("group_ids")
        if not isinstance(group_cells, list) or not isinstance(group_ids, list):
            return None
        if record.get("n") != len(group_ids):
            return None
        if group_ids and (not group_cells or max(group_ids) >= len(group_cells)):
            return None
        if not isinstance(record.get("anonymize_seconds"), (int, float)):
            return None
        if not isinstance(record.get("shard_sizes"), list):
            return None
        if not (record.get("phase_reached") is None or isinstance(record["phase_reached"], int)):
            return None
        merges = record.get("enforcement_merges", 0)
        if not isinstance(merges, int) or isinstance(merges, bool):
            return None
        return record

    def _evict(self) -> int:
        evicted = 0
        while len(self._records) > self._max_entries:
            self._records.popitem(last=False)
            evicted += 1
        return evicted

    def _compact(self) -> None:
        """Rewrite the file to the live records (atomic replace).

        Another process may have appended records since this instance loaded
        the file; they are re-read and kept — treated as older than our
        in-memory entries, which win for keys both hold — so compaction never
        erases a concurrent writer's work.
        """
        merged: OrderedDict[CacheKey, dict] = OrderedDict()
        if self._path.exists():
            with open(self._path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    record = self._parse(line)
                    if record is None:
                        continue
                    key = tuple(record["key"])
                    if key not in self._records:
                        merged[key] = record
                        merged.move_to_end(key)
        for key, record in self._records.items():
            merged[key] = record
        while len(merged) > self._max_entries:
            merged.popitem(last=False)
        self._records = merged
        temporary = self._path.with_suffix(".jsonl.tmp")
        with open(temporary, "w") as handle:
            for record in self._records.values():
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        temporary.replace(self._path)

    # ------------------------------------------------------------------- API

    def get(self, key: CacheKey, table: "Table") -> CachedRun | None:
        """Rehydrate a stored run against its (fingerprint-identical) table."""
        record = self._records.get(key)
        if record is None:
            self.misses += 1
            return None
        try:
            if record["n"] != len(table):
                raise ValueError("row count mismatch (stale or colliding record)")
            decoded_groups = [
                tuple(_decode_cell(cell) for cell in row) for row in record["group_cells"]
            ]
            if any(len(row) != table.dimension for row in decoded_groups):
                raise ValueError("cell row width does not match the table dimension")
            cells = [decoded_groups[group_id] for group_id in record["group_ids"]]
            run = CachedRun(
                output=AlgorithmOutput(
                    GeneralizedTable._from_trusted(
                        table.schema, cells, table.sa_values, list(record["group_ids"])
                    ),
                    phase_reached=record["phase_reached"],
                ),
                anonymize_seconds=record["anonymize_seconds"],
                shard_sizes=tuple(record["shard_sizes"]),
                enforcement_merges=record.get("enforcement_merges", 0),
            )
        except (KeyError, ValueError, TypeError, IndexError):
            # A record that passed the line-level checks but cannot be
            # decoded is corrupt: drop it rather than crash the lookup.
            del self._records[key]
            self.recovered += 1
            self.misses += 1
            return None
        self._records.move_to_end(key)
        self.hits += 1
        return run

    def put(self, key: CacheKey, run: CachedRun) -> None:
        """Persist one run (append; eviction compacts when the cap is hit)."""
        try:
            record = _encode_run(key, run)
        except StoreError:
            return  # non-encodable outputs simply stay memory-only
        self._records[key] = record
        self._records.move_to_end(key)
        if self._evict():
            self._compact()
        else:
            with open(self._path, "a") as handle:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def clear(self) -> None:
        self._records.clear()
        self.hits = 0
        self.misses = 0
        self.recovered = 0
        if self._path.exists():
            self._path.unlink()

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: object) -> bool:
        return key in self._records

    def keys(self) -> list[CacheKey]:
        return list(self._records)

    def stats(self) -> dict[str, object]:
        return {
            "entries": len(self._records),
            "hits": self.hits,
            "misses": self.misses,
            "recovered": self.recovered,
            "path": str(self._path),
        }
