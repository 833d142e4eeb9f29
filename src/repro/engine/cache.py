"""Per-run result caching: an in-process LRU tier over a persistent store.

Figure sweeps re-run identical ``(table, algorithm, l)`` combinations — the
stars-vs-l and time-vs-l drivers share every run, and TP+ re-runs TP
internally at the harness level when both are requested.  The cache stores
the :class:`~repro.engine.registry.AlgorithmOutput` *and* the seconds the
original run took, so a hit reproduces both the published table and a
faithful timing record.

The cache key is ``(fingerprint, algorithm, l, shards, seed, privacy)``.
The seed is part of the key because a run's output is only guaranteed
reproducible for a fixed RNG seed.  ``privacy`` is the canonical :meth:`~repro.privacy.spec.PrivacySpec.token`
of the requested privacy model and is present **even on the default path**
(``"frequency-l(l=...)"``) for the same reason: before it existed, a run
requesting a stricter spec (e.g. entropy l-diversity) at the same ``l``
would replay a frequency-l entry that never went through the enforcement
pass.

:class:`ResultCache` is a bounded in-memory LRU that can optionally sit as a
**read-through tier** over a persistent :class:`~repro.service.store.RunStore`:
misses in memory fall through to the store (when the caller supplies the
source table needed to rehydrate the published output), and puts are written
through, so repeated CLI invocations and figure sweeps reuse results across
processes.

All registered algorithms are deterministic (see their
:class:`~repro.engine.registry.AlgorithmInfo`), which is what makes replaying
a cached output equivalent to re-running; the engine refuses to cache runs of
algorithms declaring ``deterministic=False``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.registry import AlgorithmOutput
from repro.privacy.spec import FrequencyLDiversity, PrivacySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> engine)
    from repro.dataset.table import Table
    from repro.service.store import RunStore

__all__ = ["CachedRun", "ResultCache", "default_cache"]

#: Cache key: (table fingerprint, algorithm name, l, shard count, RNG seed,
#: canonical privacy-spec token).
CacheKey = tuple[str, str, int, int, int, str]


@dataclass(frozen=True)
class CachedRun:
    """One memoized anonymization run."""

    output: AlgorithmOutput
    #: Wall-clock seconds of the anonymization stage of the original run.
    anonymize_seconds: float
    #: Row count of each shard the original run executed (empty when the
    #: caller did not record a breakdown, e.g. harness-level entries).
    shard_sizes: tuple[int, ...] = ()
    #: QI-group merges the spec enforcement pass performed on the original
    #: run; replayed so cached hits report the same provenance.
    enforcement_merges: int = 0


class ResultCache:
    """A bounded LRU cache of anonymization runs, optionally store-backed.

    Without a ``store`` this is a plain in-process LRU.  With one, ``get``
    falls through to the persistent tier on a memory miss (promoting hits
    back into memory) and ``put`` writes through, making results durable
    across processes.
    """

    def __init__(self, max_entries: int = 64, store: "RunStore | None" = None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = max_entries
        self._entries: OrderedDict[CacheKey, CachedRun] = OrderedDict()
        self.store = store
        self.memory_hits = 0
        self.store_hits = 0
        self.misses = 0

    @property
    def hits(self) -> int:
        """Total hits across the memory and store tiers."""
        return self.memory_hits + self.store_hits

    @staticmethod
    def key(
        fingerprint: str,
        algorithm: str,
        l: int,
        shards: int = 1,
        seed: int = 0,
        privacy: "PrivacySpec | str | None" = None,
    ) -> CacheKey:
        """Build a cache key.

        ``privacy`` may be a spec, its canonical token, or ``None`` — the
        default keeps the ``l``-as-sugar contract and resolves to the
        frequency-l token, so two different specs with equal ``l`` can never
        share an entry.
        """
        if privacy is None:
            privacy = FrequencyLDiversity(int(l)).token()
        elif isinstance(privacy, PrivacySpec):
            privacy = privacy.token()
        return (fingerprint, algorithm, l, shards, seed, privacy)

    def get(self, key: CacheKey, table: "Table | None" = None) -> CachedRun | None:
        """Look up a run; memory first, then the persistent store.

        The store tier holds only the encoded generalization, so rehydrating
        a hit needs the source ``table`` (schema and SA values); without it
        only the memory tier is consulted.
        """
        entry, _tier = self.lookup(key, table)
        return entry

    def lookup(
        self, key: CacheKey, table: "Table | None" = None
    ) -> tuple[CachedRun | None, str | None]:
        """Like :meth:`get` but also reports which tier answered."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.memory_hits += 1
            return entry, "memory"
        if self.store is not None and table is not None:
            entry = self.store.get(key, table)
            if entry is not None:
                self.store_hits += 1
                self._insert(key, entry)  # promote for subsequent in-process hits
                return entry, "store"
        self.misses += 1
        return None, None

    def put(self, key: CacheKey, run: CachedRun) -> None:
        self._insert(key, run)
        if self.store is not None:
            self.store.put(key, run)

    def _insert(self, key: CacheKey, run: CachedRun) -> None:
        self._entries[key] = run
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.memory_hits = 0
        self.store_hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def stats(self) -> dict[str, int]:
        stats = {
            "entries": len(self._entries),
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "misses": self.misses,
        }
        if self.store is not None:
            stats["store_entries"] = len(self.store)
        return stats


_default_cache = ResultCache()


def default_cache() -> ResultCache:
    """The process-global result cache shared by the harness and the engine."""
    return _default_cache
