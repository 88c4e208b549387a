"""The profile-cache service: any :class:`CacheBackend` over HTTP.

:class:`CacheServer` fronts an existing cache tier -- typically a
:class:`~repro.cache.DiskProfileCache` rooted at a shared ``cache_dir``
-- so that a fleet of planners on *different machines* reads and writes
one profile store through
:class:`~repro.cache.http.HTTPProfileCache` clients
(the shards of ``ProcessingConfiguration.cache_urls``).

Wire format (JSON throughout; see ``docs/service.md``):

* **Lookups travel as digests.**  A cache key is a multi-kilobyte flow
  fingerprint; clients hash it locally with
  :func:`repro.cache.key_digest` -- the exact digest the disk tier uses
  for its file names -- and send only the 64-hex-char digest, so the
  hot lookup path moves a few bytes per profile, not kilobytes, and the
  server never re-hashes giant tuples.
* **Writes travel as full keys** (restored server-side with
  :func:`repro.io.jsonflow.cache_key_from_jsonable`), because on-disk
  entries are self-verifying: the stored payload records the key it was
  written under.
* **Profiles travel as** :func:`repro.io.jsonflow.profile_to_dict`
  documents; the server keeps the documents of recently served entries
  in a digest-keyed *hot map*, so repeat lookups skip the backend, the
  unpickling and the re-encoding entirely.

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

from repro.cache import CacheBackend, CacheStats, DiskProfileCache, key_digest
from repro.cache.disk import _DIGEST_RE, _ENTRY_SUFFIX
from repro.io.jsonflow import cache_key_from_jsonable, profile_from_dict, profile_to_dict
from repro.service.common import (
    MAX_REQUEST_BYTES,
    JSONRequestHandler,
    ServiceError,
    ServiceServer,
)


def _decode_key(data: Any) -> tuple:
    """Decode and sanity-check one wire key."""
    key = cache_key_from_jsonable(data)
    try:
        hash(key)
    except TypeError:
        raise ServiceError(400, "cache keys must be JSON arrays of scalars") from None
    if not isinstance(key, tuple):
        raise ServiceError(400, "cache keys must be JSON arrays (tuples), not scalars")
    return key


def _decode_digest(data: Any) -> str:
    """Accept exactly what :func:`repro.cache.key_digest` produces.

    Anything else -- in particular strings containing ``/`` or ``..`` --
    must never reach the digest-addressed file paths of the disk tier
    (the shape regex is the disk tier's own, one source of truth).
    """
    if not isinstance(data, str) or _DIGEST_RE.fullmatch(data) is None:
        raise ServiceError(400, "digests must be 64-character lowercase hex strings")
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
        if path == "/get_many":
            digests = body.get("digests")
            if not isinstance(digests, list):
                raise ServiceError(400, '"digests" must be a JSON array')
            return {
                "profiles": service.get_documents([_decode_digest(d) for d in digests])
            }
        if path == "/get":
            docs = service.get_documents([_decode_digest(body.get("digest"))])
            if docs[0] is None:
                return {"hit": False}
            return {"hit": True, "profile": docs[0]}
        if path == "/put":
            entries = body.get("entries")
            if not isinstance(entries, list):
                raise ServiceError(400, '"entries" must be a JSON array')
            decoded = []
            for entry in entries:
                if not isinstance(entry, dict) or "key" not in entry or "profile" not in entry:
                    raise ServiceError(
                        400, 'every entry must be an object with "key" and "profile"'
                    )
                try:
                    profile = profile_from_dict(entry["profile"])
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise ServiceError(400, f"malformed profile document: {exc}") from None
                decoded.append((_decode_key(entry["key"]), entry["profile"], profile))
            service.store_entries(decoded)
            return {"stored": len(decoded)}
        if path == "/contains":
            return {"contains": service.contains(_decode_digest(body.get("digest")))}
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
        LRU bound on the digest-keyed hot map of ready-to-send profile
        documents (default 8192 -- tens of MB at typical profile sizes,
        so a long-running server's memory stays bounded even when the
        disk store is huge).  Evicted documents are re-read from the
        backend on demand; ``None`` keeps every served document.
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
        digest, whichever layer -- hot map, backend or disk -- answered).
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
        # the cache.hits/cache.misses the served digests count below.
        if getattr(backend, "metrics_registry", False) is None:
            backend.metrics_registry = self.metrics  # type: ignore[attr-defined]
        self.max_hot_entries = max_hot_entries
        #: digest -> ready-to-send profile document (JSON-able dict).
        self._hot: OrderedDict[str, dict] = OrderedDict()
        #: digest -> full key.  Only populated for backends *without*
        #: digest addressing (no disk component).  Kept in LRU order and
        #: trimmed to the backend's own entry count on every insert (plus
        #: pruned when a lookup through it misses), so it is bounded by
        #: the same thing that bounds the backend.  Disk-backed servers
        #: skip it -- entries are re-resolved by file-name digest instead.
        self._keys: OrderedDict[str, tuple] = OrderedDict()
        self._lock = threading.Lock()
        self._disk = backend if isinstance(backend, DiskProfileCache) else None
        self._sweeping: DiskProfileCache | None = None
        if eviction_interval is not None:
            if self._disk is None:
                raise ValueError(
                    "eviction_interval requires a disk-backed backend (DiskProfileCache)"
                )
            self._disk.start_background_eviction(eviction_interval)
            self._sweeping = self._disk

    # ------------------------------------------------------------------
    # Lookup / store (shared by the HTTP routes and in-process callers)
    # ------------------------------------------------------------------

    def _hot_get(self, digest: str) -> dict | None:
        with self._lock:
            document = self._hot.get(digest)
            if document is not None:
                self._hot.move_to_end(digest)
            return document

    def _hot_put(self, digest: str, document: dict, key: tuple | None = None) -> None:
        with self._lock:
            self._hot[digest] = document
            self._hot.move_to_end(digest)
            if key is not None and self._disk is None:
                # Only keyed backends need the index (see its comment);
                # it survives hot-map eviction so backend entries whose
                # document was dropped remain reachable -- but it is
                # trimmed to the backend's entry count, so a bounded
                # backend can never leave the index growing with the
                # full history of distinct keys ever stored.
                self._keys[digest] = key
                self._keys.move_to_end(digest)
                backend_entries = len(self.backend)
                while len(self._keys) > backend_entries:
                    self._keys.popitem(last=False)
            if self.max_hot_entries is not None:
                while len(self._hot) > self.max_hot_entries:
                    self._hot.popitem(last=False)

    def get_documents(self, digests: list[str]) -> list[dict | None]:
        """Resolve digests to profile documents (hot map, then backend)."""
        disk = self._disk
        results: list[dict | None] = []
        hits = 0
        for digest in digests:
            document = self._hot_get(digest)
            if document is None:
                if disk is not None:
                    entry = disk.get_by_digest(digest)
                    if entry is not None:
                        document = profile_to_dict(entry[1])
                        self._hot_put(digest, document)
                else:
                    # Backends without digest addressing (the in-memory
                    # scratch tier) are reached through the key index;
                    # touching it keeps its LRU order tracking the
                    # backend's.
                    with self._lock:
                        key = self._keys.get(digest)
                        if key is not None:
                            self._keys.move_to_end(digest)
                    profile = self.backend.get(key) if key is not None else None
                    if profile is not None:
                        document = profile_to_dict(profile)
                        self._hot_put(digest, document)
                    elif key is not None:
                        # The backend evicted the entry under its own
                        # bound: prune the now-dangling index entry so
                        # the index stays bounded by the backend's
                        # content.  Conditional on identity: a
                        # concurrent store_entries may have re-indexed
                        # the digest (with a freshly decoded tuple)
                        # after our backend miss.
                        with self._lock:
                            if self._keys.get(digest) is key:
                                del self._keys[digest]
            if document is not None:
                hits += 1
            results.append(document)
        with self._lock:
            self.stats.hits += hits
            self.stats.misses += len(digests) - hits
        if hits:
            self.metrics.counter("cache.hits").inc(hits)
        if len(digests) - hits:
            self.metrics.counter("cache.misses").inc(len(digests) - hits)
        return results

    def store_entries(self, entries: list[tuple[tuple, dict, object]]) -> None:
        """Store ``(key, document, profile)`` triples and publish them."""
        for key, document, profile in entries:
            self.backend.put(key, profile)  # type: ignore[arg-type]
            self._hot_put(key_digest(key), document, key=key)
        self.backend.flush()

    def contains(self, digest: str) -> bool:
        with self._lock:
            if digest in self._hot:
                return True
            key = self._keys.get(digest)
        if key is not None:
            if key in self.backend:
                return True
            # The backend dropped the entry (eviction/clear): prune the
            # index so it stays bounded by the backend's content.  Only
            # if it is still *our* entry -- a concurrent store_entries
            # may have re-indexed the digest since the backend miss.
            with self._lock:
                if self._keys.get(digest) is key:
                    del self._keys[digest]
            return False
        if self._disk is not None and _DIGEST_RE.fullmatch(digest) is not None:
            return (self._disk.cache_dir / f"{digest}{_ENTRY_SUFFIX}").exists()
        return False

    def clear(self) -> None:
        """Drop the hot map, the key index and every backend entry."""
        with self._lock:
            self._hot.clear()
            self._keys.clear()
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
