"""The sharded network cache tier: one profile store over N cache servers.

:class:`ShardedProfileCache` is the scale-out sibling of
:class:`~repro.cache.http.HTTPProfileCache`: instead of one
:class:`~repro.service.CacheServer` it fronts a *fleet* of them, routing
every key by the consistent-hash ring of :mod:`repro.fleet.ring` (a
cache key is already a 64-hex SHA-256, so the ring routes on the key
itself).  Selected by ``ProcessingConfiguration.cache_urls``
(one or more server addresses; one URL is a one-shard ring).

Design points:

* **Client-side routing, no coordinator.**  The ring is a pure function
  of the URL set, so every planner and worker configured with the same
  ``cache_urls`` agrees on placement with zero coordination -- keys are
  content digests, so they are location-independent already.
* **One shard client per shard, the whole wire machinery each.**  Every
  shard is served by its own :class:`HTTPProfileCache`: pooled
  keep-alive connections, transparent compression, per-campaign write
  batching, bounded pending buffers and bearer-token auth all apply
  per shard.
* **Per-shard degradation and recovery.**  A dead shard degrades *its*
  client to a local in-memory fallback and probes ``/health`` on its
  backoff timer; the other shards keep serving normally (their
  stores stay warm) and a revived shard wins its slice of traffic back
  and republishes what its fallback accumulated.  A plan never fails,
  and a single shard outage re-simulates only ~1/N of the key space.
* **Batched fan-out.**  :meth:`get_many` splits a lookup window by
  shard and issues the per-shard ``POST /get_many`` round-trips
  *concurrently* (a small persistent thread pool, one worker per
  shard, so the pooled per-thread connections stay warm); a window's
  latency is the slowest shard, not the sum.
* **Deterministic rebalancing.**  :meth:`reconfigure` swaps the URL set
  in place: pending writes are flushed first, clients for surviving
  shards are kept (their connections, stats and degradation state
  included), and the new ring -- again a pure function of the new set
  -- moves only the ~1/N of keys the change owns.  Two clients that
  reconfigure to the same set agree on every assignment.
* **Aggregated observability.**  :meth:`tier_stats` reports the logical
  sharded tier, every shard's client/server/fallback breakdown *and*
  the aggregated wire counters (:meth:`wire_stats` sums the per-shard
  transports), so ``RedesignSession.cache_stats()["tiers"]`` shows the
  whole fleet instead of one client.
* **Forking.**  A forked copy (a benchmark's client process, say)
  opens its own fan-out threads and connections, so it reads through
  the same fleet without touching its parent's.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

from repro.cache.backend import CacheStats, observe_get_many
from repro.cache.http import (
    DEFAULT_RECOVERY_INTERVAL,
    DEFAULT_TIMEOUT,
    HTTPProfileCache,
)
from repro.fleet.ring import HashRing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.quality.composite import QualityProfile

#: Wire-counter names aggregated across shards by :meth:`wire_stats`.
_WIRE_COUNTERS = (
    "requests",
    "connections_opened",
    "reconnects",
    "compressed_requests",
    "compressed_responses",
    "bytes_sent",
    "bytes_received",
    "raw_bytes_sent",
    "raw_bytes_received",
    "recoveries",
)


class ShardedProfileCache:
    """A profile cache partitioned over N :class:`~repro.service.CacheServer`\\ s.

    Parameters
    ----------
    urls:
        Base URLs of the shard servers (at least one).  The consistent
        hash ring over this set decides which shard owns which key;
        URL order is irrelevant.
    timeout / auth_token / recovery_interval:
        Forwarded to every per-shard :class:`HTTPProfileCache` -- the
        same knobs, applied shard-by-shard (one shared token for the
        whole fleet).
    """

    def __init__(
        self,
        urls: Sequence[str],
        timeout: float = DEFAULT_TIMEOUT,
        auth_token: str | None = None,
        recovery_interval: float = DEFAULT_RECOVERY_INTERVAL,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        cleaned = [str(url).rstrip("/") for url in urls]
        if not cleaned:
            raise ValueError("a sharded cache needs at least one shard URL")
        # Observability only (logical fan-out view under "cache.sharded").
        self.metrics_registry = registry
        self._client_kwargs = dict(
            timeout=timeout,
            auth_token=auth_token,
            recovery_interval=recovery_interval,
        )
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._executor_pid = os.getpid()
        self.ring = HashRing(cleaned)
        self._clients: dict[str, HTTPProfileCache] = {
            url: self._new_client(url) for url in self.ring.nodes
        }

    def _new_client(self, url: str) -> HTTPProfileCache:
        """A per-shard client wired to the fleet-wide metrics registry."""
        client = HTTPProfileCache(url, **self._client_kwargs)
        # All shards share one registry: wire.* counters aggregate the
        # fleet's transport traffic (and per-shard cache.http.* stays
        # off -- the logical "sharded" tier is the client-side story).
        client._client.metrics_registry = self.metrics_registry
        return client

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def urls(self) -> tuple[str, ...]:
        """The shard URL set (sorted -- the ring's canonical order)."""
        return self.ring.nodes

    def shard_for(self, key: str) -> str:
        """The URL of the shard owning a cache key (routing introspection)."""
        return self.ring.node(key)

    def client_for(self, url: str) -> HTTPProfileCache:
        """The per-shard client (tests and monitors peek at degradation)."""
        return self._clients[url]

    @property
    def degraded_shards(self) -> tuple[str, ...]:
        """URLs of shards currently served by their local fallback."""
        return tuple(
            url for url, client in self._clients.items() if client.degraded
        )

    def reconfigure(self, urls: Sequence[str]) -> None:
        """Swap the shard set, keeping surviving shards' clients warm.

        Pending writes are flushed to their *current* owners first (the
        old ring's placement is still the fleet-wide truth until the
        change), then the ring is rebuilt over the new set: clients of
        surviving URLs are reused (connections, statistics and
        degradation state intact), removed shards' clients are closed,
        new shards get fresh clients.  Deterministic by construction --
        the new mapping is a pure function of the new URL set, so every
        fleet member that applies the same change agrees on every key's
        new owner, and only the changed shards' ~1/N slice moves.
        """
        cleaned = [str(url).rstrip("/") for url in urls]
        self.flush()
        with self._lock:
            new_ring = HashRing(cleaned)
            old_clients = self._clients
            clients: dict[str, HTTPProfileCache] = {}
            for url in new_ring.nodes:
                existing = old_clients.pop(url, None)
                clients[url] = (
                    existing if existing is not None else self._new_client(url)
                )
            retired = list(old_clients.values())
            self.ring = new_ring
            self._clients = clients
            executor, self._executor = self._executor, None
        for client in retired:
            client.close()
        if executor is not None:
            executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if os.getpid() != self._executor_pid:
                # Forked child (it inherits the parent's handle as is):
                # the inherited executor has no threads here, so
                # submitting to it would wait forever.
                self._executor = None
                self._executor_pid = os.getpid()
            if self._executor is None:
                # One worker per shard: fan-out threads are stable, so
                # each (thread, shard-client) pair keeps one pooled
                # keep-alive connection warm across windows.
                self._executor = ThreadPoolExecutor(
                    max_workers=len(self._clients),
                    thread_name_prefix="shard-fanout",
                )
            return self._executor

    def _group_by_shard(self, keys: Sequence[str]) -> dict[str, list[int]]:
        """``{shard url: [index into keys]}`` for one lookup window."""
        groups: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            groups.setdefault(self.ring.node(key), []).append(index)
        return groups

    # ------------------------------------------------------------------
    # CacheBackend protocol
    # ------------------------------------------------------------------

    def get(self, key: str) -> "QualityProfile | None":
        """Look up one profile on its owning shard."""
        profile = self._clients[self.ring.node(key)].get(key)
        with self._lock:
            self.stats.count([profile])
        return profile

    def get_many(self, keys: Sequence[str]) -> "list[QualityProfile | None]":
        """Batched lookup: one concurrent ``/get_many`` per involved shard."""
        start = time.perf_counter()
        results: "list[QualityProfile | None]" = [None] * len(keys)
        groups = self._group_by_shard(keys)
        if len(groups) <= 1:
            for url, indices in groups.items():
                found = self._clients[url].get_many([keys[i] for i in indices])
                for index, profile in zip(indices, found):
                    results[index] = profile
        else:
            futures = {
                self._pool().submit(
                    self._clients[url].get_many, [keys[i] for i in indices]
                ): indices
                for url, indices in groups.items()
            }
            for future, indices in futures.items():
                for index, profile in zip(indices, future.result()):
                    results[index] = profile
        with self._lock:
            self.stats.count(results)
        observe_get_many(
            self.metrics_registry, "sharded", time.perf_counter() - start, results
        )
        return results

    def put(self, key: str, profile: "QualityProfile") -> None:
        """Buffer an insert in the owning shard's client."""
        self._clients[self.shard_for(key)].put(key, profile)

    def flush(self) -> None:
        """Publish every shard's buffered writes (one batch per shard)."""
        for client in list(self._clients.values()):
            client.flush()

    def clear(self) -> None:
        """Drop buffers, fallbacks and (best-effort) every shard's store."""
        with self._lock:
            self.stats = CacheStats()
        for client in list(self._clients.values()):
            client.clear()

    def __len__(self) -> int:
        """Total entries across shards (best-effort, like the shard tier)."""
        return sum(len(client) for client in self._clients.values())

    def __contains__(self, key: str) -> bool:
        return key in self._clients[self.shard_for(key)]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def wire_stats(self) -> dict[str, int]:
        """Aggregated transport counters of every shard's wire client.

        The per-shard :meth:`HTTPProfileCache.wire_stats` only sees its
        own connection pool; a fleet operator wants the sum.  Shards
        currently degraded still report (their counters stopped moving,
        they did not vanish).
        """
        total = dict.fromkeys(_WIRE_COUNTERS, 0)
        for client in self._clients.values():
            for name, value in client.wire_stats().items():
                total[name] = total.get(name, 0) + value
        return total

    def tier_stats(self) -> dict[str, dict[str, float]]:
        """The whole fleet's breakdown, one entry per shard tier.

        ``"sharded"`` is this cache's logical accounting (one hit or
        miss per lookup, whichever shard -- or fallback -- served it);
        ``"shard<i>:<tier>"`` flattens each shard client's own
        ``http``/``server``/``fallback`` view (``server`` omitted for
        unreachable shards, as in the single-server tier); ``"wire"``
        is the aggregated transport accounting.  Best-effort
        throughout: a monitoring scrape never degrades a shard.
        """
        tiers: dict[str, dict[str, float]] = {}
        with self._lock:
            tiers["sharded"] = self.stats.as_dict()
        for index, url in enumerate(self.ring.nodes):
            for name, stats in self._clients[url].tier_stats().items():
                tiers[f"shard{index}:{name}"] = stats
        tiers["wire"] = dict(self.wire_stats())
        return tiers

    def close(self) -> None:
        """Close every shard client (probes cancelled) and the fan-out pool."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
        for client in self._clients.values():
            client.close()
