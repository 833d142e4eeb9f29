"""Persistent run store: one memory-mapped group-form directory per record.

The :class:`RunStore` is the durable tier of result caching: the engine's
:class:`~repro.engine.cache.ResultCache` reads through it, so figure sweeps,
repeated CLI invocations and pool workers reuse results **across
processes**.  Records are keyed exactly like the in-memory cache —
``(fingerprint, algorithm, l, shards, seed, privacy)``, where ``privacy`` is
the canonical privacy-spec token.

**Layout.**  The store is a directory holding one directory per record,
named by a hash of the canonical key, in the shape of a
:class:`~repro.engine.columnstore.ResultArtifact`::

    runs/
      <sha256(key)[:32]>/
        meta.json       format, version, the full key, n, the original
                        run's anonymize seconds, shard sizes, phase reached
                        and enforcement merges, plus sub-domain cells
        rep_codes.npy   (g, d) per-group surviving QI codes
        rep_star.npy    (g, d) per-group star flags
        group_of.npy    (n,) row -> group

Opening the store reads nothing; a lookup is a path join plus a stat, and a
hit memory-maps only its own record.  Sub-domain cells (TDS, Mondrian,
``preprocess``) are per group, so ``meta.json`` lists them as
``[group, column, sorted codes]`` triples.  Schema and sensitive values are
*not* stored: a hit is rehydrated against the caller's freshly-loaded source
table, whose fingerprint already proved it identical to the one the run was
computed on.  Because :meth:`GeneralizedTable.from_groups
<repro.dataset.generalized.GeneralizedTable.from_groups>` trusts its input,
the hit validates the record first: shapes and dtypes, ``0 <= group_of <
g``, ``n`` and the width against the table, shard sizes summing to ``n``
and every unstarred code against its attribute's domain.  Any record that
cannot be read or fails a check is counted in :attr:`RunStore.recovered`,
deleted and recomputed; it never raises out of the store.

**Publish by rename.**  A put writes its record into a sibling temp
directory (``runs/.tmp-<pid>-<uuid>``) and ``os.rename``\\ s it into place,
so readers only ever see whole records.  When a racing writer already
published the same key the loser deletes its temp directory — the
algorithms are deterministic, so both copies are equal.  A hit touches its
``meta.json``; a put evicts the records with the oldest ``meta.json`` mtimes
beyond ``max_entries`` and sweeps temp directories left by crashed writers
once they are a minute old.

**Durability policy.**  Records are a recomputable cache, so nothing is
fsynced.  A crash before the rename leaves only a temp directory; a record
torn by power loss after it fails validation on its next hit and is
recomputed.

**Migration note.**  Stores written before this layout were one JSONL file
(``runs.jsonl``); it is deleted at open and its runs are recomputed.  The key
has also had three shapes — the oldest was ``(fingerprint, algorithm, l,
shards, backend, seed)``, then a ``privacy`` token was appended and the
``backend`` dropped — and a record whose key is not the current six typed
elements is dropped, never replayed under a key it was not computed for.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.dataset.generalized import STAR, GeneralizedTable
from repro.engine.cache import CachedRun, CacheKey
from repro.engine.columnstore import (
    RESULT_GROUPS_FILE,
    RESULT_META_FILE,
    RESULT_REPS_FILE,
    RESULT_STAR_FILE,
    _load_dir,
)
from repro.engine.registry import AlgorithmOutput
from repro.errors import DataSourceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataset.table import Table

__all__ = ["RunStore", "StoreError"]

FORMAT_NAME = "repro.runstore.record"
FORMAT_VERSION = 1
ARRAY_FILES = (RESULT_REPS_FILE, RESULT_STAR_FILE, RESULT_GROUPS_FILE)
TMP_PREFIX = ".tmp-"
#: Age after which a temp directory is a crashed writer's, not a live one's.
STALE_TMP_SECONDS = 60.0

#: Element types of a stored key: (fingerprint, algorithm, l, shards, seed,
#: privacy token).
_KEY_TYPES = (str, str, int, int, int, str)


class StoreError(Exception):
    """Raised when a run cannot be encoded for persistent storage."""


def _canonical(key) -> str:
    return json.dumps(list(key))


def _valid_key(key: list) -> bool:
    return len(key) == len(_KEY_TYPES) and all(
        isinstance(part, kind) and not isinstance(part, bool)
        for part, kind in zip(key, _KEY_TYPES)
    )


def _mtime(path: str | Path, missing: float) -> float:
    try:
        return os.stat(path).st_mtime
    except OSError:
        return missing


def _explicit_form(generalized: GeneralizedTable) -> tuple:
    """The group form of a table with explicit cells, keeping its groups
    (renumbered densely): one representative row per group, with sub-domain
    cells listed apart as ``[group, column, sorted codes]``."""
    _ids, first_rows, group_of = np.unique(
        generalized.group_ids_array(), return_index=True, return_inverse=True
    )
    shape = (first_rows.shape[0], len(generalized.schema.qi))
    rep_codes = np.zeros(shape, dtype=np.int32)
    rep_star = np.zeros(shape, dtype=bool)
    subdomains: list[list] = []
    for group, row in enumerate(first_rows.tolist()):
        for column, cell in enumerate(generalized.row_cells(row)):
            if cell is STAR:
                rep_star[group, column] = True
            elif isinstance(cell, frozenset):
                subdomains.append([group, column, sorted(cell)])
            elif isinstance(cell, int):
                rep_codes[group, column] = cell
            else:
                raise StoreError(f"cannot encode generalized cell {cell!r}")
    return rep_codes, rep_star, group_of.astype(np.int64), subdomains


def _encode(key: CacheKey, run: CachedRun) -> tuple[dict, tuple]:
    generalized = run.output.generalized
    form = generalized.columnar_publish()
    if form is not None:
        arrays, subdomains = form[:3], []
    else:
        *arrays, subdomains = _explicit_form(generalized)
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "key": list(key),
        "n": len(generalized),
        "anonymize_seconds": run.anonymize_seconds,
        "shard_sizes": list(run.shard_sizes),
        "phase_reached": run.output.phase_reached,
        "enforcement_merges": run.enforcement_merges,
        "subdomains": subdomains,
    }
    return meta, tuple(arrays)


def _rehydrate(
    key: CacheKey,
    table: "Table",
    meta: dict,
    rep_codes: np.ndarray,
    rep_star: np.ndarray,
    group_of: np.ndarray,
) -> CachedRun:
    """A validated record's run over its (fingerprint-identical) table: the
    columnar group form, or explicit cells when the record has sub-domains.
    Raises ``ValueError`` (or ``TypeError``/``KeyError``) on any mismatch."""
    if _canonical(meta["key"]) != _canonical(key):
        raise ValueError("record key does not match (legacy shape or hash collision)")
    n, d = len(table), table.dimension
    if meta["n"] != n or group_of.shape != (n,):
        raise ValueError("row count mismatch (stale or colliding record)")
    if rep_codes.ndim != 2 or rep_codes.shape[1] != d or rep_star.shape != rep_codes.shape:
        raise ValueError("group form does not match the table dimension")
    g = rep_codes.shape[0]
    if rep_codes.dtype.kind != "i" or group_of.dtype.kind != "i" or rep_star.dtype != bool:
        raise ValueError("unexpected group form dtypes")
    if n and (int(group_of.min()) < 0 or int(group_of.max()) >= g):
        raise ValueError("group id out of range")
    sizes = np.array([attribute.size for attribute in table.schema.qi], dtype=np.int64)
    if ((rep_codes < 0) | (rep_codes >= sizes))[~rep_star].any():
        raise ValueError("QI code outside its attribute's domain")
    phase_reached = meta["phase_reached"]
    if not (phase_reached is None or isinstance(phase_reached, int)):
        raise ValueError("phase_reached must be an int or null")
    shard_sizes = tuple(int(size) for size in meta["shard_sizes"])
    if sum(shard_sizes) != n:
        raise ValueError("shard sizes do not cover the table (legacy or torn record)")
    if meta["subdomains"]:
        groups = [
            [STAR if starred else code for code, starred in zip(codes, flags)]
            for codes, flags in zip(rep_codes.tolist(), rep_star.tolist())
        ]
        for group, column, codes in meta["subdomains"]:
            if not (0 <= group < g and 0 <= column < d):
                raise ValueError("sub-domain cell outside the group form")
            if not all(isinstance(code, int) and 0 <= code < sizes[column] for code in codes):
                raise ValueError("sub-domain code outside its attribute's domain")
            groups[group][column] = frozenset(codes)
        rows = [tuple(cells) for cells in groups]
        group_ids = group_of.tolist()
        generalized = GeneralizedTable._from_trusted(
            table.schema, [rows[group] for group in group_ids], table.sa_values, group_ids
        )
    else:
        generalized = GeneralizedTable.from_groups(table, rep_codes, rep_star, group_of)
    return CachedRun(
        output=AlgorithmOutput(generalized, phase_reached=phase_reached),
        anonymize_seconds=float(meta["anonymize_seconds"]),
        shard_sizes=shard_sizes,
        enforcement_merges=int(meta["enforcement_merges"]),
    )


class RunStore:
    """A directory of memoized anonymization runs, one record per key."""

    def __init__(self, path: str | Path, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._path = Path(path)
        if self._path.is_file():  # a legacy JSONL store at this path
            self._path.unlink(missing_ok=True)
        self._path.mkdir(parents=True, exist_ok=True)
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.recovered = 0

    @property
    def path(self) -> Path:
        return self._path

    def _record_dir(self, key) -> Path:
        digest = hashlib.sha256(_canonical(key).encode()).hexdigest()
        return self._path / digest[:32]

    def _records(self) -> list[Path]:
        with os.scandir(self._path) as entries:
            return [
                Path(entry.path)
                for entry in entries
                if not entry.name.startswith(TMP_PREFIX) and entry.is_dir()
            ]

    def _drop(self, record: Path) -> None:
        """Count and delete an unreadable or invalid record."""
        shutil.rmtree(record, ignore_errors=True)
        self.recovered += 1

    def _sweep(self) -> None:
        """Delete stale temp directories and the oldest records past the cap."""
        cutoff = time.time() - STALE_TMP_SECONDS
        with os.scandir(self._path) as entries:
            temporaries = [entry.path for entry in entries if entry.name.startswith(TMP_PREFIX)]
        for path in temporaries:
            if _mtime(path, missing=cutoff) < cutoff:
                shutil.rmtree(path, ignore_errors=True)
        records = self._records()
        if len(records) > self._max_entries:
            # A record without meta is torn, so it goes first.
            records.sort(key=lambda record: _mtime(record / RESULT_META_FILE, missing=0.0))
            for record in records[: len(records) - self._max_entries]:
                shutil.rmtree(record, ignore_errors=True)

    # ------------------------------------------------------------------- API

    def get(self, key: CacheKey, table: "Table") -> CachedRun | None:
        """Rehydrate a stored run against its (fingerprint-identical) table."""
        record = self._record_dir(key)
        if not record.is_dir():
            self.misses += 1
            return None
        try:
            run = _load_dir(
                record, RESULT_META_FILE, FORMAT_NAME, FORMAT_VERSION, ARRAY_FILES, "r",
                lambda meta, *arrays: _rehydrate(key, table, meta, *arrays),
            )
        except DataSourceError:
            self._drop(record)
            self.misses += 1
            return None
        with contextlib.suppress(OSError):  # evicted meanwhile: the hit stands
            os.utime(record / RESULT_META_FILE)
        self.hits += 1
        return run

    def put(self, key: CacheKey, run: CachedRun) -> None:
        """Persist one run: write a temp directory, rename it into place."""
        try:
            meta, arrays = _encode(key, run)
        except StoreError:
            return  # non-encodable outputs simply stay memory-only
        temporary = self._path / f"{TMP_PREFIX}{os.getpid()}-{uuid.uuid4().hex}"
        try:
            temporary.mkdir()
            for name, array in zip(ARRAY_FILES, arrays):
                np.save(temporary / name, array)
            (temporary / RESULT_META_FILE).write_text(json.dumps(meta))
            os.rename(temporary, self._record_dir(key))
        except OSError:
            # A racing writer published the same (equal) record first, or the
            # disk refused the write: either way the run stays memory-only.
            shutil.rmtree(temporary, ignore_errors=True)
        self._sweep()

    def clear(self) -> None:
        shutil.rmtree(self._path, ignore_errors=True)
        self._path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.recovered = 0

    def __len__(self) -> int:
        return len(self._records())

    def __contains__(self, key: object) -> bool:
        return isinstance(key, tuple) and self._record_dir(key).is_dir()

    def keys(self) -> list[CacheKey]:
        """Every stored key, least recently used first.  A record whose meta
        is unreadable, or whose key is malformed or not its directory's, is
        dropped."""
        found: list[tuple[float, CacheKey]] = []
        for record in self._records():
            try:
                key = json.loads((record / RESULT_META_FILE).read_text())["key"]
                valid = _valid_key(key) and self._record_dir(key) == record
            except (OSError, ValueError, KeyError, TypeError):
                valid = False
            if valid:
                found.append((_mtime(record / RESULT_META_FILE, missing=0.0), tuple(key)))
            else:
                self._drop(record)
        return [key for _mtime, key in sorted(found)]

    def stats(self) -> dict[str, object]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "recovered": self.recovered,
            "path": str(self._path),
        }
