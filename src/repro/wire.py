"""Client-side wire plumbing shared by the service-layer clients.

Both network clients of the reproduction -- the profile-cache tier
(:class:`repro.cache.http.HTTPProfileCache`) and the redesign client
(:class:`repro.service.RedesignClient`) -- talk JSON over HTTP to the
stdlib servers in :mod:`repro.service`.  This module owns the transport
they share, so the wire-level behaviour (connection reuse, compression,
authentication) is implemented exactly once:

* **Pooled keep-alive connections.**  :class:`PooledJSONClient` keeps
  one persistent :class:`http.client.HTTPConnection` *per calling
  thread* and reuses it across requests, so a planning campaign pays
  the TCP handshake once instead of once per round-trip.  A connection
  that went stale while idle (the server restarted or closed it --
  :class:`~http.client.RemoteDisconnected`, a reset, a broken pipe) is
  transparently replaced and the request retried **exactly once**, and
  only when the connection was *reused*: a failure on a fresh
  connection, or protocol garbage (a non-empty unparseable status
  line), is never retried -- it is the caller's error to handle.
* **Transparent compression.**  Request bodies at or above
  ``compress_min_bytes`` are gzip-compressed (``Content-Encoding:
  gzip``); every request advertises ``Accept-Encoding: gzip, deflate``
  and responses are decompressed according to their
  ``Content-Encoding``.  Profile documents are highly redundant JSON
  (they compress ~5-10x), so this trades cheap CPU for wire bytes.
  Disable with ``compression=False`` to reproduce the uncompressed
  protocol.
* **Token authentication.**  With ``auth_token`` set, every request
  carries ``Authorization: Bearer <token>`` -- the scheme
  :class:`repro.service.common.ServiceServer` checks when started with
  a token.  The token protects against *accidental* cross-talk and
  unauthorised writes on a trusted network; it is not a substitute for
  TLS (terminate TLS in front of the server -- see
  ``docs/service.md``).

Error contract: HTTP error responses raise :class:`WireError` (status +
server-provided message); transport and protocol failures raise the
underlying :class:`OSError` / :class:`http.client.HTTPException` /
:class:`ValueError`, letting each client apply its own policy (the
cache client degrades, the redesign client re-raises).
"""

from __future__ import annotations

import gzip
import http.client
import json
import os
import socket
import threading
import urllib.parse
import zlib
from typing import Any, Mapping

#: Bodies at or above this many bytes are compressed (requests by the
#: client, responses by the server).  Below it the gzip header overhead
#: and the extra CPU are not worth the handful of wire bytes saved.
COMPRESS_MIN_BYTES = 1024

#: Content-Encoding values the codec understands.
_CODINGS = ("gzip", "deflate", "identity")


class WireError(Exception):
    """An HTTP error response (status >= 400) with the server's message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


def compress_body(
    body: bytes, *, compress: bool, min_bytes: int = COMPRESS_MIN_BYTES
) -> tuple[bytes, str | None]:
    """Compress an already-serialised body when worthwhile.

    Returns ``(body, content_encoding)`` where ``content_encoding`` is
    ``"gzip"`` or ``None``.  ``mtime=0`` keeps the gzip output
    deterministic (byte-identical bodies for byte-identical payloads).
    """
    if compress and len(body) >= min_bytes:
        compressed = gzip.compress(body, mtime=0)
        if len(compressed) < len(body):
            return compressed, "gzip"
    return body, None


def encode_body(
    payload: Any, *, compress: bool, min_bytes: int = COMPRESS_MIN_BYTES
) -> tuple[bytes, str | None]:
    """Serialise a JSON payload, compressing it when worthwhile.

    ``json.dumps`` then :func:`compress_body` -- callers that need the
    pre-compression size (the wire byte accounting) serialise themselves
    and call :func:`compress_body` directly.
    """
    return compress_body(
        json.dumps(payload).encode("utf-8"), compress=compress, min_bytes=min_bytes
    )


class BodyTooLarge(ValueError):
    """A compressed body decompressed past the caller's ``max_bytes``."""


def decode_body(
    body: bytes, content_encoding: str | None, max_bytes: int | None = None
) -> bytes:
    """Undo a ``Content-Encoding``.

    With ``max_bytes`` set, decompression stops at the bound and raises
    :class:`BodyTooLarge` -- the server uses this so a small compressed
    request cannot expand past ``max_request_bytes`` in memory.  Raises
    ``ValueError`` for unknown codings and truncated streams,
    ``zlib.error`` for corrupt ones.
    """
    coding = (content_encoding or "identity").strip().lower()
    if coding == "identity" or not body:
        return body
    if coding == "gzip":
        wbits = 31
    elif coding == "deflate":
        wbits = 15
    else:
        raise ValueError(f"unsupported Content-Encoding: {content_encoding!r}")
    decompressor = zlib.decompressobj(wbits=wbits)
    out = decompressor.decompress(body, max_bytes + 1 if max_bytes is not None else 0)
    if max_bytes is not None and (
        len(out) > max_bytes or decompressor.unconsumed_tail
    ):
        raise BodyTooLarge(
            f"decompressed body exceeds the {max_bytes}-byte limit"
        )
    out += decompressor.flush()
    if not decompressor.eof:
        raise ValueError("truncated compressed body")
    return out


class PooledJSONClient:
    """A JSON-over-HTTP client with per-thread persistent connections.

    Parameters
    ----------
    url:
        Base URL, e.g. ``"http://127.0.0.1:8731"``.  ``https://`` URLs
        use :class:`http.client.HTTPSConnection` (for TLS-terminating
        front-ends that re-encrypt to the client).
    timeout:
        Socket timeout in seconds, applied to every connection.
    compression:
        Compress request bodies at/above :attr:`compress_min_bytes` and
        advertise ``Accept-Encoding`` (the server then compresses large
        responses).  Off = the plain PR 5 protocol.
    compress_min_bytes:
        Size threshold for request compression.
    auth_token:
        Optional shared token sent as ``Authorization: Bearer <token>``.
    keep_alive:
        When ``False``, every request sends ``Connection: close`` and
        tears the socket down afterwards -- one TCP connection per
        request, the PR 5 behaviour, kept for benchmarking the pooled
        path against.

    Attributes
    ----------
    connections_opened / reconnects / requests:
        Wire accounting: sockets ever opened, stale-socket replacements
        (each one also implies a retried request), and completed
        round-trips.  ``compressed_requests`` / ``compressed_responses``
        count bodies that actually travelled compressed.
    bytes_sent / bytes_received:
        Body bytes as they travelled (post-compression request bodies,
        pre-decompression response bodies); headers are not counted.
    raw_bytes_sent / raw_bytes_received:
        The same bodies *before* compression / *after* decompression --
        ``raw / wire`` is the effective compression ratio.
    metrics_registry:
        Optional :class:`repro.obs.MetricsRegistry`; when set, the four
        byte counters (and ``wire.requests``) are mirrored as ``wire.*``
        instruments on every round-trip.  Plain attribute, assignable
        after construction.
    """

    def __init__(
        self,
        url: str,
        timeout: float,
        *,
        compression: bool = True,
        compress_min_bytes: int = COMPRESS_MIN_BYTES,
        auth_token: str | None = None,
        keep_alive: bool = True,
    ) -> None:
        split = urllib.parse.urlsplit(url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(f"unsupported service URL: {url!r} (use http[s]://host:port)")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.compression = compression
        self.compress_min_bytes = compress_min_bytes
        self.auth_token = auth_token
        self.keep_alive = keep_alive
        self._scheme = split.scheme
        self._host = split.hostname
        self._port = split.port or (443 if split.scheme == "https" else 80)
        self._base_path = split.path.rstrip("/")
        self._local = threading.local()
        self._live: set[http.client.HTTPConnection] = set()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self.connections_opened = 0
        self.reconnects = 0
        self.requests = 0
        self.compressed_requests = 0
        self.compressed_responses = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.raw_bytes_sent = 0
        self.raw_bytes_received = 0
        self.metrics_registry = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        connection = cls(self._host, self._port, timeout=self.timeout)
        connection.connect()
        try:
            # A request is written as two segments (headers, then body);
            # with Nagle on, the second waits out the peer's delayed ACK
            # (~40ms) on every keep-alive round-trip -- the stall would
            # eat the entire pooling win.
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, AttributeError):  # pragma: no cover - platform quirk
            pass
        with self._lock:
            self._live.add(connection)
            self.connections_opened += 1
        return connection

    def _discard(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            self._live.discard(connection)
        try:
            connection.close()
        except OSError:  # pragma: no cover - close never matters
            pass
        if getattr(self._local, "connection", None) is connection:
            self._local.connection = None

    def close(self) -> None:
        """Close every pooled connection (all threads); safe to re-use after."""
        with self._lock:
            live, self._live = self._live, set()
        for connection in live:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _headers(self, content_encoding: str | None) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.compression:
            headers["Accept-Encoding"] = "gzip, deflate"
        if content_encoding is not None:
            headers["Content-Encoding"] = content_encoding
        if self.auth_token is not None:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        if not self.keep_alive:
            headers["Connection"] = "close"
        return headers

    def _round_trip(
        self, method: str, path: str, body: bytes | None, headers: Mapping[str, str]
    ) -> tuple[int, bytes, str | None]:
        """One request/response on the pooled connection, reconnecting once.

        Only a *reused* connection whose server went away mid-idle is
        retried (``RemoteDisconnected`` -- the empty-response subclass of
        ``BadStatusLine`` -- a reset, a broken pipe, or a connection the
        pool already knows is unusable).  A fresh connection failing, or
        a server answering actual garbage, raises straight through.
        """
        if os.getpid() != self._pid:
            # Forked child, e.g. a client process of a benchmark (fork
            # inherits thread-local state, so the parent's socket looks
            # like "our" connection here).  Two processes writing one fd
            # interleave request bytes into protocol garbage -- abandon
            # the inherited connections and dial fresh.  Closing our fd
            # copies is safe: the parent's own descriptors keep its
            # sockets alive.
            self._local = threading.local()
            with self._lock:
                self._live = set()
            self._pid = os.getpid()
        connection = getattr(self._local, "connection", None)
        fresh = connection is None
        if fresh:
            connection = self._local.connection = self._connect()
        try:
            return self._exchange(connection, method, path, body, headers)
        except (
            http.client.RemoteDisconnected,
            http.client.CannotSendRequest,
            ConnectionResetError,
            BrokenPipeError,
        ):
            self._discard(connection)
            if fresh:
                raise
            # The keep-alive socket went stale while idle: one fresh
            # connection, one retry.  A second failure propagates.
            self.reconnects += 1
            connection = self._local.connection = self._connect()
            try:
                return self._exchange(connection, method, path, body, headers)
            except Exception:
                self._discard(connection)
                raise
        except Exception:
            # Anything else (timeout, refused, protocol garbage) poisons
            # the connection but is never retried here.
            self._discard(connection)
            raise

    def _exchange(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        body: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, bytes, str | None]:
        connection.request(method, self._base_path + path, body=body, headers=dict(headers))
        response = connection.getresponse()
        # Always drain: a half-read body would desync the next request.
        payload = response.read()
        if not self.keep_alive or response.will_close:
            self._discard(connection)
        return response.status, payload, response.getheader("Content-Encoding")

    def request_json(
        self, method: str, path: str, payload: Mapping[str, Any] | None = None
    ) -> Any:
        """One JSON round-trip.

        Raises :class:`WireError` for HTTP error statuses (message taken
        from the server's JSON error document) and lets transport /
        protocol / serialisation failures propagate for the caller's
        policy.  A JSON response that does not parse raises
        ``ValueError``.
        """
        if payload is None:
            body, content_encoding = None, None
            raw_sent = 0
        else:
            raw_body = json.dumps(payload).encode("utf-8")
            raw_sent = len(raw_body)
            body, content_encoding = compress_body(
                raw_body, compress=self.compression, min_bytes=self.compress_min_bytes
            )
            if content_encoding is not None:
                self.compressed_requests += 1
        status, raw, response_encoding = self._round_trip(
            method, path, body, self._headers(content_encoding)
        )
        self.requests += 1
        if response_encoding not in (None, "identity"):
            self.compressed_responses += 1
        wire_received = len(raw)
        raw = decode_body(raw, response_encoding)
        self.bytes_sent += len(body) if body is not None else 0
        self.raw_bytes_sent += raw_sent
        self.bytes_received += wire_received
        self.raw_bytes_received += len(raw)
        registry = self.metrics_registry
        if registry is not None:
            registry.counter("wire.requests").inc()
            if body is not None:
                registry.counter("wire.bytes_sent").inc(len(body))
                registry.counter("wire.raw_bytes_sent").inc(raw_sent)
            registry.counter("wire.bytes_received").inc(wire_received)
            registry.counter("wire.raw_bytes_received").inc(len(raw))
        if status >= 400:
            try:
                message = json.loads(raw.decode("utf-8")).get("error", "")
            except (ValueError, AttributeError, UnicodeDecodeError):
                message = ""
            raise WireError(status, message or f"HTTP {status}")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"response body is not valid JSON: {exc}") from None
