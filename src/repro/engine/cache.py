"""Per-run result caching through a persistent run store, or not at all.

:meth:`Engine.run <repro.engine.core.Engine.run>` looks each cacheable run
up in its :class:`ResultCache` and writes every miss back.  The cache is a
handle on an optional :class:`~repro.service.store.RunStore`: with a store,
a lookup reads the store's record and a put writes one through, so repeated
CLI invocations, served jobs and figure sweeps replay results across
processes; without one, every lookup misses and a put does nothing.  A
record holds the :class:`~repro.engine.registry.AlgorithmOutput` *and* the
seconds the original run took, so a hit reproduces both the published table
and a faithful timing record.

The cache key is ``(fingerprint, algorithm, l, shards, seed, privacy)``.
The seed is part of the key because a run's output is only guaranteed
reproducible for a fixed RNG seed.  ``privacy`` is the canonical :meth:`~repro.privacy.spec.PrivacySpec.token`
of the requested privacy model and is present **even on the default path**
(``"frequency-l(l=...)"``) for the same reason: before it existed, a run
requesting a stricter spec (e.g. entropy l-diversity) at the same ``l``
would replay a frequency-l entry that never went through the enforcement
pass.

All registered algorithms are deterministic (see their
:class:`~repro.engine.registry.AlgorithmInfo`), which is what makes replaying
a cached output equivalent to re-running; the engine refuses to cache runs of
algorithms declaring ``deterministic=False``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.registry import AlgorithmOutput
from repro.privacy.spec import PrivacySpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> engine)
    from repro.dataset.table import Table
    from repro.service.store import RunStore

__all__ = ["CachedRun", "ResultCache"]

#: Cache key: (table fingerprint, algorithm name, l, shard count, RNG seed,
#: canonical privacy-spec token).
CacheKey = tuple[str, str, int, int, int, str]


@dataclass(frozen=True)
class CachedRun:
    """One memoized anonymization run."""

    output: AlgorithmOutput
    #: Wall-clock seconds of the anonymization stage of the original run.
    anonymize_seconds: float
    #: Row count of each shard the original run executed (one entry, ``n``,
    #: when unsharded).
    shard_sizes: tuple[int, ...]
    #: QI-group merges the spec enforcement pass performed on the original
    #: run; replayed so cached hits report the same provenance.
    enforcement_merges: int = 0


class ResultCache:
    """The engine's handle on a persistent run store; without one it caches
    nothing."""

    def __init__(self, store: "RunStore | None" = None) -> None:
        self.store = store
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        fingerprint: str,
        algorithm: str,
        l: int,
        shards: int,
        seed: int,
        privacy: PrivacySpec,
    ) -> CacheKey:
        """Build a cache key; the spec enters as its canonical token, so two
        different specs with equal ``l`` never share an entry."""
        return (fingerprint, algorithm, l, shards, seed, privacy.token())

    def lookup(self, key: CacheKey, table: "Table") -> CachedRun | None:
        """The store's record for ``key``, rehydrated against the source
        ``table`` (the store holds only the encoded generalization), or
        ``None`` on a miss."""
        entry = self.store.get(key, table) if self.store is not None else None
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, key: CacheKey, run: CachedRun) -> None:
        if self.store is not None:
            self.store.put(key, run)
