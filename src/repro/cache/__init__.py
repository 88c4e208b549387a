"""Tiered quality-profile caching.

The planning loop re-estimates quality profiles for every candidate
flow; profiles are pure functions of (flow fingerprint, estimation
settings, measure registry), which makes them ideal cache currency.
The planner's tier follows from its configuration
(:func:`build_profile_cache`):

neither ``cache_dir`` nor ``cache_urls``
    :class:`ProfileCache` -- the in-process LRU (the default; the seed
    behaviour).
``cache_dir``
    :class:`TieredProfileCache` -- an in-process LRU in front of a
    :class:`DiskProfileCache`, a persistent, process-shared store
    (atomic writes, versioned self-verifying entries,
    corruption-tolerant reads, size-capped LRU eviction), promoting
    disk hits into memory.
``cache_urls``
    :class:`~repro.fleet.ShardedProfileCache` -- a consistent-hash ring
    over one or more :class:`repro.service.CacheServer` shards, each
    reached through an :class:`HTTPProfileCache` client that degrades
    to a local memory tier while its server is unreachable and
    recovers on its own.  See ``docs/fleet.md``.

All tiers implement the :class:`CacheBackend` protocol.  See
``docs/caching.md`` for the selection guide, the key/versioning scheme
and the invalidation rules, and ``docs/service.md`` for the network
tier's wire protocol.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from repro.cache.backend import CacheBackend, CacheStats, cache_stats_dict
from repro.cache.disk import CACHE_SCHEMA_VERSION, DiskProfileCache
from repro.cache.memory import ProfileCache
from repro.cache.tiered import TieredProfileCache

# Safe to import eagerly: repro.cache.http defers its JSON-codec imports
# (repro.io -> repro.quality -> repro.cache) to call time, so no cycle.
from repro.cache.http import HTTPProfileCache  # noqa: E402  (after siblings)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

#: Default ``ProcessingConfiguration.cache_timeout`` (seconds per request).
DEFAULT_CACHE_TIMEOUT = 5.0


def build_profile_cache(
    cache_dir: str | os.PathLike | None = None,
    max_bytes: int | None = None,
    urls: tuple[str, ...] | None = None,
    timeout: float = DEFAULT_CACHE_TIMEOUT,
    auth_token: str | None = None,
    registry: "MetricsRegistry | None" = None,
) -> CacheBackend:
    """Build the cache backend the configuration's inputs select.

    Mirrors the ``cache_dir`` / ``cache_max_bytes`` / ``cache_urls`` /
    ``cache_timeout`` / ``cache_auth_token`` fields of
    :class:`~repro.core.configuration.ProcessingConfiguration`, which
    validates the combination up front; every planner that is not handed
    a backend builds its cache here, so a planner always has one.
    ``urls`` builds a :class:`~repro.fleet.ShardedProfileCache` ring (one
    URL is a one-shard ring), ``cache_dir`` memory over disk, and neither
    the in-process :class:`ProfileCache`.  ``registry`` (the
    configuration's ``metrics_registry``) hangs a metrics registry on the
    built tier so its batched lookups report ``cache.<tier>.*``
    instruments; ``None`` (the default) keeps every tier observation-free.
    """
    if urls:
        # Imported lazily: repro.fleet.sharded imports this package.
        from repro.fleet.sharded import ShardedProfileCache

        return ShardedProfileCache(
            urls, timeout=timeout, auth_token=auth_token, registry=registry
        )
    if cache_dir is None:
        return ProfileCache(registry=registry)
    disk = DiskProfileCache(cache_dir, max_bytes=max_bytes, registry=registry)
    return TieredProfileCache(ProfileCache(registry=registry), disk, registry=registry)


def persistent_component(cache: CacheBackend | None) -> CacheBackend | None:
    """The part of ``cache`` whose entries outlive this process, if any.

    The disk store of a memory-over-disk tier, or the cache itself for a
    disk store, a cache-server client or a ring of them: the part the
    evaluator batches writes for during a stream.  ``None`` for
    memory-only caches, which have nothing to batch.
    """
    if cache is None or isinstance(cache, ProfileCache):
        return None
    if isinstance(cache, TieredProfileCache):
        return cache.disk
    from repro.fleet.sharded import ShardedProfileCache

    if isinstance(cache, (DiskProfileCache, HTTPProfileCache, ShardedProfileCache)):
        return cache
    return None


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_TIMEOUT",
    "CacheBackend",
    "CacheStats",
    "DiskProfileCache",
    "HTTPProfileCache",
    "ProfileCache",
    "TieredProfileCache",
    "build_profile_cache",
    "cache_stats_dict",
    "persistent_component",
]
