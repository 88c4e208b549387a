"""The cache backend contract shared by every profile-cache tier.

:class:`CacheBackend` is the protocol extracted from the original
in-memory ``ProfileCache`` (PR 1) so that the planner, the estimator and
the evaluator can be handed *any* cache tier -- in-memory LRU
(:class:`~repro.cache.memory.ProfileCache`), disk-backed
(:class:`~repro.cache.disk.DiskProfileCache`) or the memory-over-disk
composite (:class:`~repro.cache.tiered.TieredProfileCache`) -- without
knowing which one they got.

Keys are 64-character lowercase hex SHA-256 strings produced by
:meth:`repro.quality.estimator.QualityEstimator.cache_key`, the same on
every tier, on the wire and on the shard ring; they already fold in the
cache schema version, the flow content fingerprint, the estimation
settings and the measure registry, so two estimators with different
settings can safely share one backend.  Values are
:class:`~repro.quality.composite.QualityProfile` instances; backends
must treat them as immutable snapshots (callers already store copies).

See ``docs/caching.md`` for the tier-selection guide and the
key/versioning scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.quality.composite import QualityProfile


@dataclass
class CacheStats:
    """Hit/miss/evict accounting of one cache tier.

    Every backend owns one instance; the tiered composite additionally
    keeps a *logical* aggregate (one hit or miss per lookup, whichever
    tier served it).  ``invalid`` counts disk entries that were dropped
    on read because they were corrupted, truncated, or written by an
    incompatible cache schema version -- they are also counted as
    misses, so ``lookups`` stays the true lookup count.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalid: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly snapshot (used by session histories and benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalid": self.invalid,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


def cache_stats_dict(cache: "CacheBackend") -> dict[str, object]:
    """The one stats serialization every cache consumer shares.

    Logical counters (:meth:`CacheStats.as_dict`) at the top level plus
    the per-tier breakdown under ``"tiers"`` -- the shape
    ``RedesignSession.cache_stats``, the ``/stats`` routes and the
    ``/metrics`` exporters all return.  Keep conversions here; call
    sites must not re-assemble the dict by hand.
    """
    stats: dict[str, object] = dict(cache.stats.as_dict())
    stats["tiers"] = cache.tier_stats()
    return stats


def observe_get_many(
    registry: "MetricsRegistry | None",
    tier: str,
    elapsed_seconds: float,
    results: "Sequence[QualityProfile | None]",
) -> None:
    """Record one batched lookup into a metrics registry (if any).

    Shared by every tier's ``get_many``: one observation on
    ``cache.<tier>.get_many_seconds`` plus result-derived
    ``cache.<tier>.hits`` / ``.misses`` counter bumps.  Deriving the
    counts from the *results* (instead of diffing :attr:`stats`) keeps
    them exact under concurrent lookups on a shared backend.  ``invalid``
    is not derivable from results; the disk tier mirrors it at the site
    that detects the damage.
    """
    if registry is None:
        return
    registry.histogram(f"cache.{tier}.get_many_seconds").observe(elapsed_seconds)
    hits = sum(1 for result in results if result is not None)
    misses = len(results) - hits
    if hits:
        registry.counter(f"cache.{tier}.hits").inc(hits)
    if misses:
        registry.counter(f"cache.{tier}.misses").inc(misses)


@runtime_checkable
class CacheBackend(Protocol):
    """What the estimator/evaluator/planner require of a profile cache.

    The contract, beyond the method signatures:

    * ``get``/``put`` must be safe to call concurrently from multiple
      threads of one process (the streaming evaluator does), and a
      shared *disk* backend must additionally tolerate concurrent
      writers from other processes (two planners pointed at one
      ``cache_dir``) -- last-writer-wins per entry, readers never see a
      torn entry.
    * ``get`` counts exactly one hit or one miss in :attr:`stats` per
      call; ``put`` never touches hit/miss counts.
    * ``put`` may buffer (see ``flush``); a buffered entry must still be
      visible to ``get``/``__contains__`` of the same backend instance.
    * ``flush`` persists any buffered writes; it is a no-op for fully
      synchronous backends.  Callers that batch work (the evaluator's
      stream) call it once on teardown.
    * ``clear`` drops every entry *and* resets the statistics.
    """

    stats: CacheStats

    def get(self, key: str) -> "QualityProfile | None":
        """Look up a profile, counting the hit or miss."""
        ...

    def get_many(self, keys: "Sequence[str]") -> "list[QualityProfile | None]":
        """Batched lookup: one result (and one hit/miss count) per key.

        Semantically equivalent to ``[self.get(k) for k in keys]`` but
        backends amortize the per-lookup overhead -- one lock acquisition
        for the in-memory tier, one locked pass over the entry files for
        the disk tier, one network round-trip for the HTTP tier.  The
        evaluator resolves each evaluation window this way.
        """
        ...

    def put(self, key: str, profile: "QualityProfile") -> None:
        """Insert (or refresh) a profile; does not affect hit/miss counts."""
        ...

    def flush(self) -> None:
        """Persist buffered writes (no-op for synchronous backends)."""
        ...

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        ...

    def tier_stats(self) -> dict[str, dict[str, float]]:
        """Per-tier statistics snapshots, keyed by tier name."""
        ...

    def __len__(self) -> int: ...

    def __contains__(self, key: str) -> bool: ...
