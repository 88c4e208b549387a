"""The profile-cache service: any :class:`CacheBackend` over HTTP.

:class:`CacheServer` fronts an existing cache tier -- typically a
:class:`~repro.cache.DiskProfileCache` rooted at a shared ``cache_dir``
-- so that a fleet of planners on *different machines* reads and writes
one profile store through
:class:`~repro.cache.http.HTTPProfileCache` clients
(the shards of ``ProcessingConfiguration.cache_urls``).

Wire format (JSON throughout; see ``docs/service.md``):

* **Keys travel as they are.**  A cache key is a 64-character
  lowercase hex SHA-256 (``QualityEstimator.cache_key``), the same on
  every tier: ``/get``, ``/get_many`` and ``/contains`` name entries by
  it (the ``digest``/``digests`` fields) and ``/put`` entries carry it
  as ``key``.  Anything of another shape is answered with ``400``
  before it reaches the backend, so no request can name a file outside
  a disk backend's ``cache_dir``.  Every backend is served through
  ``get_many`` and ``in`` with the key unchanged.
* **Profiles travel as one document per request**
  (:func:`repro.io.jsonflow.profiles_to_dict`): the wire format number,
  the measure tables, and one ``[table, values, normalized, scores]``
  row per profile.  Every ``/get``, ``/get_many`` and ``/put`` body
  states the format; a request of another format is answered with
  ``400``.  The server keeps recently served profiles, each encoded as a
  one-profile document, in a key-indexed *hot map*, so repeat lookups
  skip the backend and the re-encoding: a batch only lists each distinct
  table once and re-points the rows
  (:func:`repro.io.jsonflow.merge_profile_documents`).

With ``eviction_interval`` set (and a size-capped disk backend), the
server moves the LRU sweep off the write path onto the backend's
background sweeper thread
(:meth:`~repro.cache.DiskProfileCache.start_background_eviction`), so
large stores don't pay a directory scan per publish.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.cache import CacheBackend, CacheStats, DiskProfileCache
from repro.cache.disk import is_cache_key
from repro.io.jsonflow import (
    WireFormatError,
    check_format,
    merge_profile_documents,
    profiles_from_dict,
    profiles_to_dict,
)
from repro.quality.composite import QualityProfile
from repro.service.common import (
    MAX_REQUEST_BYTES,
    JSONRequestHandler,
    ServiceError,
    ServiceServer,
)


def _decode_key(data: Any) -> str:
    """Accept exactly the shape ``QualityEstimator.cache_key`` produces.

    Anything else -- in particular strings containing ``/`` or ``..`` --
    must never reach the key-named files of the disk tier (the shape
    check is the disk tier's own, one source of truth).
    """
    if not is_cache_key(data):
        raise ServiceError(400, "cache keys must be 64-character lowercase hex strings")
    return data


class _CacheHandler(JSONRequestHandler):
    """Routes of the cache service (see ``docs/service.md`` for the table)."""

    def route(self, method: str, path: str, body: Any) -> dict:
        service: CacheServer = self.server.service  # type: ignore[attr-defined]
        if method == "GET" and path in ("/stats", "/health"):
            payload: dict[str, Any] = {
                "entries": len(service.backend),
                "stats": service.stats.as_dict(),
            }
            if path == "/health":
                payload["status"] = "ok"
            else:
                payload["tiers"] = service.backend.tier_stats()
            return payload
        if method != "POST":
            raise ServiceError(404, f"unknown endpoint: {method} {path}")
        if not isinstance(body, dict):
            raise ServiceError(400, "request body must be a JSON object")
        if path in ("/get", "/get_many", "/put"):
            try:
                check_format(body)
            except WireFormatError as exc:
                raise ServiceError(400, str(exc)) from None
        if path == "/get_many":
            digests = body.get("digests")
            if not isinstance(digests, list):
                raise ServiceError(400, '"digests" must be a JSON array')
            return merge_profile_documents(
                service.get_documents([_decode_key(d) for d in digests])
            )
        if path == "/get":
            found = service.get_documents([_decode_key(body.get("digest"))])
            return dict(merge_profile_documents(found), hit=found[0] is not None)
        if path == "/put":
            keys = body.get("keys")
            if not isinstance(keys, list):
                raise ServiceError(400, '"keys" must be a JSON array')
            keys = [_decode_key(key) for key in keys]
            try:
                profiles = profiles_from_dict(body)
            except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
                raise ServiceError(400, f"malformed profile document: {exc}") from None
            if len(profiles) != len(keys) or None in profiles:
                raise ServiceError(400, "every key needs exactly one profile")
            service.store_entries(list(zip(keys, profiles)))
            return {"stored": len(keys)}
        if path == "/contains":
            return {"contains": service.contains(_decode_key(body.get("digest")))}
        if path == "/flush":
            service.backend.flush()
            return {"ok": True}
        if path == "/clear":
            service.clear()
            return {"ok": True}
        raise ServiceError(404, f"unknown endpoint: {method} {path}")


class CacheServer(ServiceServer):
    """Serve one :class:`~repro.cache.CacheBackend` to the network.

    Parameters
    ----------
    backend:
        The tier to front -- typically a
        :class:`~repro.cache.DiskProfileCache` (persistent, so the fleet
        survives server restarts warm), but any backend works (an
        in-memory ``ProfileCache`` makes a fast shared scratch cache).
    host, port:
        Bind address; ``port=0`` (default) picks an ephemeral port, read
        back from :attr:`url`.
    max_request_bytes:
        Reject request bodies above this size with ``413``.
    auth_token:
        Optional shared token: requests (``GET /health`` excepted) must
        carry ``Authorization: Bearer <token>`` or get a ``401``.
        Clients configure it as ``cache_auth_token``.
    max_hot_entries:
        LRU bound on the key-indexed hot map of recently served
        profiles' documents (default 8192 -- tens of MB at typical profile sizes,
        so a long-running server's memory stays bounded even when the
        disk store is huge).  Evicted profiles are re-read from the
        backend on demand; ``None`` keeps every served profile.
    eviction_interval:
        When set (seconds), and the backend is a size-capped
        :class:`~repro.cache.DiskProfileCache`, run its LRU sweep on a
        background thread at this interval instead of on every publish
        (:meth:`~repro.cache.DiskProfileCache.start_background_eviction`);
        stopped -- with a final sweep -- by :meth:`stop`.

    Attributes
    ----------
    stats:
        The server's own lookup accounting (one hit or miss per served
        key, whichever layer -- hot map or backend -- answered).
        This is what clients report as the ``"server"`` tier.
    """

    handler_class = _CacheHandler

    def __init__(
        self,
        backend: CacheBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        auth_token: str | None = None,
        max_hot_entries: int | None = 8192,
        eviction_interval: float | None = None,
    ) -> None:
        super().__init__(
            host=host,
            port=port,
            max_request_bytes=max_request_bytes,
            auth_token=auth_token,
        )
        self.backend = backend
        self.stats = CacheStats()
        # Server-side observability: the backend reports its batched
        # lookups (cache.<tier>.*) into the server's registry, alongside
        # the cache.hits/cache.misses the served keys count below.
        if getattr(backend, "metrics_registry", False) is None:
            backend.metrics_registry = self.metrics  # type: ignore[attr-defined]
        self.max_hot_entries = max_hot_entries
        #: key -> one-profile document of a recently served or stored
        #: profile, ready to merge into a response.
        self._hot: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self._sweeping: DiskProfileCache | None = None
        if eviction_interval is not None:
            if not isinstance(backend, DiskProfileCache):
                raise ValueError(
                    "eviction_interval requires a disk-backed backend (DiskProfileCache)"
                )
            backend.start_background_eviction(eviction_interval)
            self._sweeping = backend

    # ------------------------------------------------------------------
    # Lookup / store (shared by the HTTP routes and in-process callers)
    # ------------------------------------------------------------------

    def _hot_get(self, key: str) -> dict | None:
        with self._lock:
            document = self._hot.get(key)
            if document is not None:
                self._hot.move_to_end(key)
            return document

    def _hot_put(self, key: str, document: dict) -> None:
        with self._lock:
            self._hot[key] = document
            self._hot.move_to_end(key)
            if self.max_hot_entries is not None:
                while len(self._hot) > self.max_hot_entries:
                    self._hot.popitem(last=False)

    def get_documents(self, keys: list[str]) -> list[dict | None]:
        """Resolve keys to one-profile documents (hot map, then one backend batch)."""
        results = [self._hot_get(key) for key in keys]
        missing = [index for index, document in enumerate(results) if document is None]
        if missing:
            profiles = self.backend.get_many([keys[index] for index in missing])
            for index, profile in zip(missing, profiles):
                if profile is not None:
                    results[index] = profiles_to_dict([profile])
                    self._hot_put(keys[index], results[index])
        hits = sum(1 for document in results if document is not None)
        with self._lock:
            self.stats.hits += hits
            self.stats.misses += len(keys) - hits
        if hits:
            self.metrics.counter("cache.hits").inc(hits)
        if len(keys) - hits:
            self.metrics.counter("cache.misses").inc(len(keys) - hits)
        return results

    def store_entries(self, entries: list[tuple[str, QualityProfile]]) -> None:
        """Store ``(key, profile)`` pairs and publish them."""
        for key, profile in entries:
            self.backend.put(key, profile)
            self._hot_put(key, profiles_to_dict([profile]))
        self.backend.flush()

    def contains(self, key: str) -> bool:
        with self._lock:
            if key in self._hot:
                return True
        return key in self.backend

    def clear(self) -> None:
        """Drop the hot map and every backend entry."""
        with self._lock:
            self._hot.clear()
            self.stats = CacheStats()
        self.backend.clear()

    # ------------------------------------------------------------------

    metrics_server_kind = "cache"

    def metrics_payload(self) -> dict[str, Any]:
        """The base payload plus the authoritative server-side hit rate."""
        payload = super().metrics_payload()
        with self._lock:
            hit_rate = self.stats.hit_rate
            lookups = self.stats.lookups
        if lookups:
            payload["golden"]["cache_hit_rate"] = hit_rate
        payload["entries"] = len(self.backend)
        return payload

    def stop(self) -> None:
        """Stop serving; also stops the background sweeper (final sweep)."""
        if self._sweeping is not None:
            self._sweeping.stop_background_eviction()
            self._sweeping = None
        super().stop()
