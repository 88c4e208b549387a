"""The memory-over-disk composite profile-cache tier.

Combines the speed of the in-process LRU with the persistence of the
disk store: lookups hit memory first, fall back to disk, and *promote*
disk hits into the memory tier so a profile is deserialized at most once
per process.  Writes go through to both tiers (the disk write may be
buffered -- see :meth:`DiskProfileCache.begin_write_batch`).

The composite keeps its own *logical* :class:`CacheStats` -- exactly one
hit or miss per :meth:`get`, whichever tier served it -- so existing
consumers of ``cache.stats`` (benchmarks, session histories) read the
same numbers regardless of tier; :meth:`tier_stats` exposes the
per-tier breakdown, including promotions counted as memory puts.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Sequence

from repro.cache.backend import CacheStats, observe_get_many
from repro.cache.disk import DiskProfileCache
from repro.cache.memory import ProfileCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.quality.composite import QualityProfile


class TieredProfileCache:
    """Two-level profile cache: an in-memory LRU in front of a disk store."""

    def __init__(
        self,
        memory: ProfileCache,
        disk: DiskProfileCache,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.memory = memory
        self.disk = disk
        self.stats = CacheStats()
        # Observability only (logical hits/misses under "cache.tiered");
        # the sub-tiers carry their own registries.
        self.metrics_registry = registry
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------

    def get(self, key: str) -> QualityProfile | None:
        """Memory first, then disk (promoting the hit); one logical count."""
        profile = self.memory.get(key)
        if profile is None:
            profile = self.disk.get(key)
            if profile is not None:
                self.memory.put(key, profile)
        with self._stats_lock:
            self.stats.count([profile])
        return profile

    def get_many(self, keys: Sequence[str]) -> list["QualityProfile | None"]:
        """Batched lookup: memory first, then one disk pass for the misses."""
        start = time.perf_counter()
        results: list[QualityProfile | None] = self.memory.get_many(keys)
        missing = [index for index, profile in enumerate(results) if profile is None]
        if missing:
            from_disk = self.disk.get_many([keys[index] for index in missing])
            for index, profile in zip(missing, from_disk):
                if profile is not None:
                    self.memory.put(keys[index], profile)
                    results[index] = profile
        with self._stats_lock:
            self.stats.count(results)
        observe_get_many(
            self.metrics_registry, "tiered", time.perf_counter() - start, results
        )
        return results

    def put(self, key: str, profile: QualityProfile) -> None:
        """Write through to both tiers (the disk write may be buffered)."""
        self.memory.put(key, profile)
        self.disk.put(key, profile)

    def flush(self) -> None:
        """Publish the disk tier's buffered writes."""
        self.disk.flush()

    def clear(self) -> None:
        """Drop both tiers and reset every statistic (logical and per-tier)."""
        self.memory.clear()
        self.disk.clear()
        with self._stats_lock:
            self.stats = CacheStats()

    def tier_stats(self) -> dict[str, dict[str, float]]:
        """Logical plus per-tier breakdown (``overall`` / ``memory`` / ``disk``)."""
        return {
            "overall": self.stats.as_dict(),
            "memory": self.memory.stats.as_dict(),
            "disk": self.disk.stats.as_dict(),
        }

    def __len__(self) -> int:
        # The disk tier is a superset of the memory tier (every put goes
        # through to it), so its entry count is the cache's entry count.
        return len(self.disk)

    def __contains__(self, key: str) -> bool:
        return key in self.memory or key in self.disk
