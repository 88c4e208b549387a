"""The network (HTTP) profile-cache tier.

:class:`HTTPProfileCache` implements the :class:`~repro.cache.backend.CacheBackend`
protocol on top of a remote cache service (:class:`repro.service.CacheServer`)
so that a *fleet* of planners -- separate processes, separate machines --
can share one profile store without mounting a common ``cache_dir``.
Each shard of the ``ProcessingConfiguration.cache_urls`` ring
(:class:`~repro.fleet.ShardedProfileCache`) is reached through one of
these clients; ``cache_timeout`` is its per-request budget.

Design points, mirroring the disk tier where the analogy holds:

* **JSON wire format, keys as they are.**  A cache key is a 64-hex
  SHA-256 string (``QualityEstimator.cache_key``), the same on every
  tier, so lookups, ``/contains`` probes and ``/put`` entries carry the
  key unchanged and a server fronting a ``cache_dir`` addresses exactly
  the files a local planner would.  Profiles travel as one
  :func:`repro.io.jsonflow.profiles_to_dict` document per request (the
  wire format number, the measure tables, one row per profile); the
  round-trip is exact, so the tier-equivalence property
  (identical planning results across tiers) holds over the network
  too.  A server of another wire format answers ``400`` and a response
  of another format is refused: either way the client degrades.
* **Pooled keep-alive connections.**  Requests ride the per-thread
  persistent connections of :class:`repro.wire.PooledJSONClient`: the
  TCP handshake is paid once per thread, a keep-alive socket that went
  stale while idle (server restart) is replaced and the request retried
  exactly once, and protocol garbage is never retried.  Large bodies
  are gzip-compressed transparently.
* **Client-side write batching.**  ``put`` buffers; ``flush`` publishes
  the buffer in a single ``POST /put`` -- the same discipline the
  evaluator already applies to the disk tier, so a planning
  stream costs one round-trip per campaign, not one per stored profile.
  A campaign that outgrows :data:`MAX_PENDING` buffered entries publishes
  early (memory stays bounded on flows that never flush).  Buffered
  entries are served by ``get``/``in`` of this instance.
* **Batched lookups.**  :meth:`get_many` resolves a whole evaluation
  window in one ``POST /get_many`` round-trip.
* **Graceful degradation, with recovery.**  A server that is
  unreachable, times out or misbehaves *never* fails a plan: the first
  failure is logged once (``repro.cache.http`` logger), pending writes
  move into a local in-memory fallback tier, and operations are served
  locally.  A degraded client then probes ``GET /health`` on an
  exponential-backoff timer (``recovery_interval``; doubling up to
  16x); when the server answers again the client re-attaches,
  republishes everything the fallback accumulated in one batch, and
  the server wins traffic back -- no process restart needed.  Plans
  complete with identical results throughout: cache tiers trade
  wall-clock, never correctness.
* **Observability never degrades.**  :meth:`tier_stats` and
  :meth:`__len__` are read-only monitoring surfaces: a failed ``/stats``
  poll returns the local view *without* flipping the client into
  fallback mode -- a monitoring scrape must never downgrade the hot
  path.
* **Authentication fails loudly.**  With the server started under a
  shared token, a client holding the wrong one gets ``401`` -- surfaced
  as :class:`CacheAuthError`, *not* silent local fallback: running an
  entire campaign cold because of a misconfigured token is exactly the
  failure an operator wants to see immediately.
"""

from __future__ import annotations

import http.client
import logging
import threading
import time
from typing import TYPE_CHECKING, Sequence

from repro.cache.backend import CacheStats, observe_get_many
from repro.cache.memory import ProfileCache
from repro.wire import PooledJSONClient, WireError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.quality.composite import QualityProfile

logger = logging.getLogger("repro.cache.http")

#: Default per-request budget, in seconds (``ProcessingConfiguration.cache_timeout``).
DEFAULT_TIMEOUT = 5.0

#: Default first recovery-probe delay, in seconds.
DEFAULT_RECOVERY_INTERVAL = 5.0

#: Bound on the unflushed write buffer: a put that fills it publishes.
MAX_PENDING = 1024

#: The probe delay doubles after each failed probe, up to this multiple
#: of ``recovery_interval``.
RECOVERY_BACKOFF_CAP = 16


class CacheAuthError(RuntimeError):
    """The cache server rejected this client's token (HTTP 401).

    Deliberately *not* handled by degradation: an auth failure is
    deterministic misconfiguration, and silently running a whole fleet
    on cold local caches would hide it.  Fix the token
    (``cache_auth_token`` / the server's ``--auth-token``) instead.
    """


class HTTPProfileCache:
    """A profile-cache tier served by a remote :class:`~repro.service.CacheServer`.

    Parameters
    ----------
    url:
        Base URL of the cache service, e.g. ``"http://127.0.0.1:8731"``.
    timeout:
        Per-request timeout in seconds; a request exceeding it degrades
        the client to its local fallback tier (it never raises).
    auth_token:
        Shared token sent as ``Authorization: Bearer <token>``
        (``ProcessingConfiguration.cache_auth_token``); a ``401``
        raises :class:`CacheAuthError` instead of degrading.
    recovery_interval:
        First recovery-probe delay after degradation, in seconds; the
        delay doubles per failed probe up to 16x.
    """

    def __init__(
        self,
        url: str,
        timeout: float = DEFAULT_TIMEOUT,
        auth_token: str | None = None,
        recovery_interval: float = DEFAULT_RECOVERY_INTERVAL,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive (seconds)")
        if recovery_interval <= 0:
            raise ValueError("recovery_interval must be positive (seconds)")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.stats = CacheStats()
        # Observability only (client-side view of the network tier).
        self.metrics_registry = registry
        self.fallback = ProfileCache()
        self.recovery_interval = recovery_interval
        self._client = PooledJSONClient(self.url, timeout, auth_token=auth_token)
        # The transport mirrors wire.* byte counters into the same
        # registry (compression ratio = raw_bytes / bytes on the wire).
        self._client.metrics_registry = registry
        self._pending: dict[str, QualityProfile] = {}
        self._degraded = False
        self._closed = False
        self._probe_timer: threading.Timer | None = None
        self._probe_interval = recovery_interval
        self._recoveries = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------

    def _request(
        self, path: str, payload: dict | None = None, *, best_effort: bool = False
    ) -> dict | None:
        """One JSON round-trip; ``None`` on any failure.

        Hot-path calls degrade the client on failure (the local
        fallback serves from then on); ``best_effort`` calls -- the
        read-only observability surfaces -- just return ``None``, so a
        failed monitoring poll can never downgrade planning traffic.
        A ``401`` always raises :class:`CacheAuthError`.
        """
        if self._degraded:
            return None
        # Everything from serialising the payload (TypeError on a key a
        # client somehow made non-JSON-able) to a misbehaving server
        # (http.client's protocol exceptions are not OSErrors) degrades
        # -- a cache failure must never fail a plan.
        try:
            if payload is None:
                parsed = self._client.request_json("GET", path)
            else:
                parsed = self._client.request_json("POST", path, payload)
            if not isinstance(parsed, dict):
                raise ValueError(
                    f"expected a JSON object response, got {type(parsed).__name__}"
                )
            return parsed
        except WireError as exc:
            if exc.status == 401:
                raise CacheAuthError(
                    f"cache server {self.url} rejected the auth token: {exc.message} "
                    "(set cache_auth_token to the server's --auth-token)"
                ) from None
            if best_effort:
                return None
            self._degrade(exc)
            return None
        except (
            http.client.HTTPException,
            OSError,
            ValueError,
            TypeError,
        ) as exc:
            if best_effort:
                return None
            self._degrade(exc)
            return None

    def _degrade(self, exc: Exception) -> None:
        """Switch to the local fallback tier, logging once per outage.

        Degradation is not terminal: a backoff timer starts probing
        ``/health`` and re-attaches when the server answers (see
        :meth:`_probe`).
        """
        with self._lock:
            if self._degraded:
                return
            self._degraded = True
            pending = dict(self._pending)
            self._pending.clear()
        # Outside the lock: ProfileCache.put takes its own lock.
        for key, profile in pending.items():
            self.fallback.put(key, profile)
        logger.warning(
            "profile cache server %s unreachable (%s); falling back to a local "
            "in-memory tier (probing for recovery every %gs, backing off)",
            self.url,
            exc,
            self.recovery_interval,
        )
        self._schedule_probe(self.recovery_interval)

    # ------------------------------------------------------------------
    # Recovery probes
    # ------------------------------------------------------------------

    def _schedule_probe(self, interval: float) -> None:
        with self._lock:
            if self._closed or not self._degraded:
                return
            self._probe_interval = interval
            timer = threading.Timer(interval, self._probe)
            timer.daemon = True
            self._probe_timer = timer
            timer.start()

    def _probe(self) -> None:
        """One recovery attempt (runs on the backoff timer's thread)."""
        if self._closed or not self._degraded:
            return
        try:
            self._client.request_json("GET", "/health")
        except WireError as exc:
            if exc.status == 401:
                # Probing can't fix a bad token; stop and say so.
                logger.error(
                    "cache server %s is back but rejected the auth token (%s); "
                    "staying on the local fallback -- fix cache_auth_token",
                    self.url,
                    exc.message,
                )
                return
            self._schedule_probe(self._next_probe_interval())
        except (http.client.HTTPException, OSError, ValueError):
            self._schedule_probe(self._next_probe_interval())
        else:
            self._reattach()

    def _next_probe_interval(self) -> float:
        cap = self.recovery_interval * RECOVERY_BACKOFF_CAP
        return min(self._probe_interval * 2, cap)

    def _reattach(self) -> None:
        """Return traffic to a recovered server, republishing the fallback."""
        with self._lock:
            if not self._degraded:
                return
            self._degraded = False
            self._probe_timer = None
            self._recoveries += 1
        entries = self.fallback.drain()
        with self._lock:
            for key, profile in entries:
                self._pending.setdefault(key, profile)
            republished = len(self._pending)
        logger.warning(
            "profile cache server %s is reachable again; re-attached "
            "(republishing %d fallback entr%s)",
            self.url,
            republished,
            "y" if republished == 1 else "ies",
        )
        if republished:
            self.flush()  # a failure here degrades again (timer restarts)

    @property
    def degraded(self) -> bool:
        """Whether the client is currently on its local memory tier."""
        return self._degraded

    @property
    def recoveries(self) -> int:
        """How many times a recovery probe has re-attached the server."""
        return self._recoveries

    @property
    def has_pending(self) -> bool:
        """Whether :meth:`flush` has buffered entries to publish."""
        with self._lock:
            return bool(self._pending)

    def wire_stats(self) -> dict[str, int]:
        """Transport accounting of the pooled connection layer."""
        client = self._client
        return {
            "requests": client.requests,
            "connections_opened": client.connections_opened,
            "reconnects": client.reconnects,
            "compressed_requests": client.compressed_requests,
            "compressed_responses": client.compressed_responses,
            "bytes_sent": client.bytes_sent,
            "bytes_received": client.bytes_received,
            "raw_bytes_sent": client.raw_bytes_sent,
            "raw_bytes_received": client.raw_bytes_received,
            "recoveries": self._recoveries,
        }

    def close(self) -> None:
        """Cancel any recovery probe and drop every pooled connection.

        Idempotent and terminal for the probe timer; buffered writes are
        *not* flushed (call :meth:`flush` first if they should be).
        """
        with self._lock:
            self._closed = True
            timer, self._probe_timer = self._probe_timer, None
        if timer is not None:
            timer.cancel()
        self._client.close()

    # ------------------------------------------------------------------
    # CacheBackend protocol
    # ------------------------------------------------------------------

    def get(self, key: str) -> QualityProfile | None:
        """Look up a profile (pending buffer, then server, then fallback)."""
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str]) -> list["QualityProfile | None"]:
        """Batched lookup: one round-trip for every key not buffered locally.

        Counts exactly one hit or miss per key, whichever side served it.
        """
        from repro.io.jsonflow import WIRE_FORMAT, profiles_from_dict

        start = time.perf_counter()
        results: list[QualityProfile | None] = [None] * len(keys)
        remote: list[int] = []
        with self._lock:
            for index, key in enumerate(keys):
                pending = self._pending.get(key)
                if pending is not None:
                    results[index] = pending
                else:
                    remote.append(index)
        if remote:
            response = self._request(
                "/get_many",
                {"format": WIRE_FORMAT, "digests": [keys[index] for index in remote]},
            )
            if response is not None:
                try:
                    profiles = profiles_from_dict(response)
                    if len(profiles) != len(remote):
                        raise ValueError(
                            f"expected {len(remote)} profile documents in the "
                            f"response, got {len(profiles)}"
                        )
                    decoded = list(zip(profiles, remote))
                except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
                    # A 200 carrying non-profile documents, or documents
                    # of another wire format, is as misbehaving as a dead
                    # socket: degrade rather than raise into the plan.
                    self._degrade(exc)
                    response = None
                else:
                    for profile, index in decoded:
                        results[index] = profile
            if response is None:
                # Degraded (now or earlier): the local tier answers, and
                # its own stats record the fallback traffic.
                for index in remote:
                    results[index] = self.fallback.get(keys[index])
        with self._lock:
            self.stats.count(results)
        observe_get_many(
            self.metrics_registry, "http", time.perf_counter() - start, results
        )
        return results

    def put(self, key: str, profile: QualityProfile) -> None:
        """Buffer an insert; :meth:`flush` publishes the buffer in one batch.

        The degraded check happens under the same lock :meth:`_degrade`
        drains the buffer with, so a put racing with the degradation can
        never strand an entry in a buffer nothing will ever flush.  A
        buffer reaching :data:`MAX_PENDING` entries publishes immediately --
        a campaign that never flushes cannot hold every profile it ever
        produced in memory.
        """
        with self._lock:
            if not self._degraded:
                self._pending[key] = profile
                if len(self._pending) < MAX_PENDING:
                    return
            else:
                self.fallback.put(key, profile)
                return
        self.flush()

    def flush(self) -> None:
        """Publish every buffered entry to the server in a single request."""
        from repro.io.jsonflow import profiles_to_dict

        with self._lock:
            if not self._pending:
                return
            batch = dict(self._pending)
            if self._degraded:  # pragma: no cover - put/degrade race window
                self._pending.clear()
        if self._degraded:
            for key, profile in batch.items():
                self.fallback.put(key, profile)
            return
        response = self._request(
            "/put", dict(profiles_to_dict(list(batch.values())), keys=list(batch))
        )
        if response is not None:
            with self._lock:
                # Only drop what was sent; puts racing with the request stay.
                for key in batch:
                    self._pending.pop(key, None)
        # On failure _degrade already moved the buffer into the fallback.

    def clear(self) -> None:
        """Drop the buffer, the fallback and (best-effort) the server store."""
        with self._lock:
            self._pending.clear()
            self.stats = CacheStats()
        self.fallback.clear()
        self._request("/clear", {})

    def tier_stats(self) -> dict[str, dict[str, float]]:
        """Client, server and fallback breakdowns.

        ``"http"`` is this client's logical accounting (one hit or miss
        per lookup, whichever side served it), ``"server"`` the remote
        backend's own counters (fetched best-effort; omitted when the
        server is unreachable), and ``"fallback"`` the local tier that
        serves after degradation.  Best-effort throughout: a failed
        stats poll never degrades the hot path.
        """
        tiers: dict[str, dict[str, float]] = {}
        with self._lock:
            tiers["http"] = self.stats.as_dict()
        response = self._request("/stats", best_effort=True)
        if response is not None and "stats" in response:
            tiers["server"] = response["stats"]
        tiers["fallback"] = self.fallback.stats.as_dict()
        return tiers

    def __len__(self) -> int:
        """Entry count: server entries plus unflushed buffer (approximate
        across the flush boundary), or the fallback after degradation.
        Best-effort: an unreachable server yields the local count
        without degrading the client."""
        response = self._request("/stats", best_effort=True)
        with self._lock:
            pending = len(self._pending)
        if response is None:
            return len(self.fallback) + pending
        return int(response.get("entries", 0)) + pending

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._pending:
                return True
        response = self._request("/contains", {"digest": key})
        if response is None:
            return key in self.fallback
        return bool(response.get("contains", False))
