"""Persistent run store: one memory-mapped result artifact per record.

The :class:`RunStore` is the engine's one result cache: an engine given a
:class:`~repro.engine.cache.ResultCache` over a store looks every run up in
it and writes every miss back, so repeated CLI invocations and pool workers
reuse results **across processes**.  Records are keyed by
``(fingerprint, algorithm, l, shards, seed, privacy)``, where ``privacy`` is
the canonical privacy-spec token.  A file at the store's path is not a
store: opening one raises :class:`FileExistsError`.

**Layout.**  The store is a directory holding one
:class:`~repro.engine.columnstore.ResultArtifact` directory per record,
named by a hash of the canonical key — the same files a served job's
``results/<job_id>`` holds::

    runs/
      <sha256(key)[:32]>/
        meta.json       the artifact's header, string tables and sub-domain
                        codes, plus the record's key, the original run's
                        anonymize seconds, shard sizes, phase reached and
                        enforcement merges
        rep_codes.npy   (g, d) per-group QI codes
        rep_star.npy    (g, d) per-group star flags
        group_of.npy    (n,) row -> group
        sa_codes.npy    (n,) sensitive codes

Opening the store reads nothing; a lookup is a path join plus a stat, and a
hit memory-maps only its own record.  A hit is rehydrated against the
caller's freshly-loaded source table, whose fingerprint already proved it
identical to the one the run was computed on: a suppression output adopts
the group form, and a table with sub-domain cells (TDS, Mondrian,
``preprocess``) rebuilds them from the artifact's sub-domain codes.
Because :meth:`GeneralizedTable.from_groups
<repro.dataset.generalized.GeneralizedTable.from_groups>` trusts its input,
the hit validates the record first: the key, shapes and dtypes, ``0 <=
group_of < g``, ``n`` and the width against the table, shard sizes summing
to ``n`` and every unstarred code against its attribute's domain or its
column's sub-domains.  Any record that cannot be read or fails a check —
one written in an older layout included — is counted in
:attr:`RunStore.recovered`, deleted and recomputed; it never raises out of
the store.

**Publish by rename.** A put saves the record's artifact, and so goes
through :func:`~repro.engine.columnstore.publish`: a sibling temp directory
is written and synced to disk, then renamed into place, so readers only ever
see whole records.  Two writers racing on one key publish equal records (the
algorithms are deterministic); a put that loses such a race, or that the
disk refuses, leaves the run memory-only.  A hit touches its ``meta.json``;
a put evicts the records with the oldest ``meta.json`` mtimes beyond
``max_entries`` and deletes the temps of writers whose process is gone.

**Durability policy.** Records are synced to disk before they are renamed
into place, so a record that exists is whole even after power loss.  A
writer killed before the rename leaves only a temp directory.  A record that
still fails validation is recomputed.

**Key shapes.**  The key has had three shapes — the oldest was
``(fingerprint, algorithm, l, shards, backend, seed)``, then a ``privacy``
token was appended and the ``backend`` dropped — and a record whose key is
not the current six typed elements is dropped, never replayed under a key it
was not computed for.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.dataset.generalized import STAR, GeneralizedTable
from repro.engine.cache import CachedRun, CacheKey
from repro.engine.columnstore import RESULT_META_FILE, ResultArtifact, is_temp, sweep_temps
from repro.engine.registry import AlgorithmOutput
from repro.errors import DataSourceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataset.table import Table

__all__ = ["RunStore"]

#: Element types of a stored key: (fingerprint, algorithm, l, shards, seed,
#: privacy token).
_KEY_TYPES = (str, str, int, int, int, str)


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


def _record(key: CacheKey, run: CachedRun) -> ResultArtifact:
    artifact = ResultArtifact.from_generalized(run.output.generalized)
    artifact.meta = {
        "key": list(key),
        "anonymize_seconds": run.anonymize_seconds,
        "shard_sizes": list(run.shard_sizes),
        "phase_reached": run.output.phase_reached,
        "enforcement_merges": run.enforcement_merges,
    }
    return artifact


def _rehydrate(key: CacheKey, table: "Table", artifact: ResultArtifact) -> CachedRun:
    """A validated record's run over its (fingerprint-identical) table: the
    columnar group form, or explicit cells when the record has sub-domains.
    Raises ``ValueError`` (or ``TypeError``/``KeyError``) on any mismatch."""
    meta = artifact.meta
    if _canonical(meta["key"]) != _canonical(key):
        raise ValueError("record key does not match (legacy shape or hash collision)")
    n = len(table)
    if artifact.n != n or artifact.d != table.dimension:
        raise ValueError("record shape does not match the table (stale or colliding record)")
    rep_codes, rep_star, group_of = artifact.rep_codes, artifact.rep_star, artifact.group_of
    if rep_codes.dtype.kind != "i" or group_of.dtype.kind != "i" or rep_star.dtype != bool:
        raise ValueError("unexpected group form dtypes")
    if n and (int(group_of.min()) < 0 or int(group_of.max()) >= artifact.g):
        raise ValueError("group id out of range")
    sizes = [attribute.size for attribute in table.schema.qi]
    subdomains = artifact.subdomains
    for size, cells in zip(sizes, subdomains):
        if not all(isinstance(code, int) and 0 <= code < size for cell in cells for code in cell):
            raise ValueError("sub-domain code outside its attribute's domain")
    # Codes past an attribute's domain index its column's sub-domain cells.
    limits = np.array([size + len(cells) for size, cells in zip(sizes, subdomains)])
    if ((rep_codes < 0) | (rep_codes >= limits))[~rep_star].any():
        raise ValueError("QI code outside its attribute's domain")
    phase_reached = meta["phase_reached"]
    if not (phase_reached is None or isinstance(phase_reached, int)):
        raise ValueError("phase_reached must be an int or null")
    shard_sizes = tuple(int(size) for size in meta["shard_sizes"])
    if sum(shard_sizes) != n:
        raise ValueError("shard sizes do not cover the table (legacy or torn record)")
    if any(subdomains):
        groups = [
            tuple(
                STAR if starred
                else code if code < size
                else frozenset(cells[code - size])
                for code, starred, size, cells in zip(codes, flags, sizes, subdomains)
            )
            for codes, flags in zip(rep_codes.tolist(), rep_star.tolist())
        ]
        group_ids = group_of.tolist()
        generalized = GeneralizedTable._from_trusted(
            table.schema, [groups[group] for group in group_ids], table.sa_values, group_ids
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
                if not is_temp(entry.name) and entry.is_dir()
            ]

    def _drop(self, record: Path) -> None:
        """Count and delete an unreadable or invalid record."""
        shutil.rmtree(record, ignore_errors=True)
        self.recovered += 1

    def _sweep(self) -> None:
        """Delete dead writers' temps and the oldest records past the cap."""
        sweep_temps(self._path)
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
            run = _rehydrate(key, table, ResultArtifact.mmap(record))
        except (DataSourceError, ValueError, TypeError, KeyError):
            self._drop(record)
            self.misses += 1
            return None
        with contextlib.suppress(OSError):  # evicted meanwhile: the hit stands
            os.utime(record / RESULT_META_FILE)
        self.hits += 1
        return run

    def put(self, key: CacheKey, run: CachedRun) -> None:
        """Persist one run: publish its record artifact."""
        with contextlib.suppress(OSError):  # a lost race or a full disk
            _record(key, run).save(self._record_dir(key))
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
