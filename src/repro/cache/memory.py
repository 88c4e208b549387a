"""The in-memory LRU profile-cache tier (the default
:class:`~repro.cache.backend.CacheBackend`)."""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

from repro.cache.backend import CacheStats, observe_get_many

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.quality.composite import QualityProfile


class ProfileCache:
    """A bounded, thread-safe memo of quality profiles keyed by flow fingerprint.

    The default (and fastest) cache tier: entries live in this process
    only and die with it.  Shared by the full and the static (screening)
    estimators of a planner and across the iterations of a redesign
    session.  Lookups are counted in :attr:`stats`; entries are evicted
    least-recently-used when ``max_entries`` is set.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None for unbounded)")
        self.max_entries = max_entries
        self.stats = CacheStats()
        # Observability only.
        self.metrics_registry = registry
        self._entries: OrderedDict[str, QualityProfile] = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def get(self, key: str) -> QualityProfile | None:
        """Look up a profile, counting the hit or miss."""
        with self._lock:
            profile = self._entries.get(key)
            if profile is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return profile

    def get_many(self, keys: Sequence[str]) -> list["QualityProfile | None"]:
        """Batched lookup under a single lock acquisition."""
        start = time.perf_counter()
        with self._lock:
            results: list[QualityProfile | None] = []
            for key in keys:
                profile = self._entries.get(key)
                if profile is None:
                    self.stats.misses += 1
                else:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                results.append(profile)
        observe_get_many(
            self.metrics_registry, "memory", time.perf_counter() - start, results
        )
        return results

    def put(self, key: str, profile: QualityProfile) -> None:
        """Insert (or refresh) a profile; does not affect hit/miss counts."""
        with self._lock:
            self._entries[key] = profile
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def flush(self) -> None:
        """No-op: in-memory writes are always synchronous."""

    def drain(self) -> list[tuple[str, "QualityProfile"]]:
        """Remove and return every entry, *keeping* the statistics.

        Unlike :meth:`clear` (drop everything, reset accounting), this
        hands the contents over for re-publication elsewhere -- the
        network tier uses it to push fallback entries back to a
        recovered cache server without losing the fallback's hit/miss
        history.
        """
        with self._lock:
            entries = list(self._entries.items())
            self._entries.clear()
        return entries

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def tier_stats(self) -> dict[str, dict[str, float]]:
        """Per-tier statistics (a single ``"memory"`` tier)."""
        return {"memory": self.stats.as_dict()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries
