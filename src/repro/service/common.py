"""Shared HTTP plumbing of the service layer.

Both servers (:class:`~repro.service.CacheServer` and
:class:`~repro.service.RedesignServer`) are stdlib-only: a
:class:`http.server.ThreadingHTTPServer` behind a small JSON
request/response convention implemented here.

* Requests and responses are ``application/json``; errors are JSON too
  (``{"error": "..."}``) with the appropriate status code, so clients
  never have to scrape HTML tracebacks.
* Bodies above the server's ``max_request_bytes`` are rejected with
  ``413`` *before* being read; malformed JSON gets a clean ``400``.
* Handler exceptions surface as ``500`` JSON errors; the server thread
  keeps serving.

Wire-path features shared with the clients (:mod:`repro.wire`):

* Request bodies may arrive gzip- or deflate-compressed
  (``Content-Encoding``); they are decompressed transparently, with the
  ``max_request_bytes`` cap enforced on *both* the wire size and the
  decompressed size (a compressed bomb cannot bypass the limit).
* Responses at or above :data:`repro.wire.COMPRESS_MIN_BYTES` are
  gzip-compressed by :func:`repro.wire.compress_body` (the clients'
  request compressor) when the client advertised
  ``Accept-Encoding: gzip``; other clients get identity responses.
* With ``auth_token`` set on the server, every request (except ``GET
  /health``, the conventional load-balancer liveness probe, and ``GET
  /metrics``, the read-only monitoring scrape) must carry
  ``Authorization: Bearer <token>`` or is rejected with a ``401`` JSON
  error.  Tokens are compared in constant time.

Observability: every :class:`ServiceServer` owns a
:class:`repro.obs.MetricsRegistry` and answers ``GET /metrics`` with the
JSON payload of :meth:`ServiceServer.metrics_payload` (snapshot plus
derived golden metrics); ``GET /metrics?format=prom`` renders the
Prometheus text exposition instead.  Every routed request is timed into
the ``service.request_seconds`` histogram (``/metrics`` scrapes
excluded, so monitoring never skews the latency it reads).  See
``docs/observability.md``.

The servers bind ``127.0.0.1`` by default and speak plain HTTP -- the
shared token authenticates, but does not encrypt; deploy across trust
boundaries only behind a TLS terminator (see ``docs/service.md``).
"""

from __future__ import annotations

import hmac
import json
import logging
import socket
import threading
import time
import urllib.parse
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs.golden import golden_metrics
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.wire import BodyTooLarge, compress_body, decode_body

logger = logging.getLogger("repro.service")

#: Default cap on request bodies (flow documents are a few hundred kB at
#: most; profiles far less).  Oversized requests are rejected with 413.
MAX_REQUEST_BYTES = 8 * 1024 * 1024


class ServiceError(Exception):
    """A request failure with an HTTP status and a JSON-safe message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Request handler base: JSON bodies in, JSON payloads out.

    Subclasses implement :meth:`route` and receive the parsed body for
    every method (``{}`` when the request carries none -- bodies are
    always drained so keep-alive connections stay in sync); whatever
    they return is serialised as the 200 response (``bytes`` are sent
    as already-encoded JSON).  Raise
    :class:`ServiceError` for client errors; anything else becomes a
    500.
    """

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # Responses also go out as two segments (headers, body); without
    # this, Nagle holds the second back for the client's delayed ACK on
    # every keep-alive round-trip.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def send_json(self, status: int, payload: dict | bytes) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        content_encoding = None
        if "gzip" in (self.headers.get("Accept-Encoding") or "").lower():
            body, content_encoding = compress_body(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if content_encoding is not None:
            self.send_header("Content-Encoding", content_encoding)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Tell keep-alive clients the truth (set when a request was
            # rejected before its body was drained -- see read_json).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_text(self, status: int, text: str) -> None:
        """A plain-text response (the Prometheus exposition format)."""
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def read_json(self) -> Any:
        """Parse the request body, enforcing the size cap first.

        A request rejected *before* its body is read (oversized, bad
        Content-Length) leaves unread bytes on the socket; the
        connection is marked for closing so a keep-alive client cannot
        have its next request parsed out of the stale body.
        """
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            self.close_connection = True
            raise ServiceError(400, "invalid Content-Length header") from None
        limit = getattr(self.server, "max_request_bytes", MAX_REQUEST_BYTES)
        if length > limit:
            self.close_connection = True
            raise ServiceError(
                413, f"request body of {length} bytes exceeds the {limit}-byte limit"
            )
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        content_encoding = self.headers.get("Content-Encoding")
        if content_encoding:
            try:
                raw = decode_body(raw, content_encoding, max_bytes=limit)
            except BodyTooLarge:
                # The wire size passed the cap but the decompressed body
                # does not: same 413; the body WAS drained, so the
                # keep-alive connection stays usable.
                raise ServiceError(
                    413,
                    f"request body decompresses past the {limit}-byte limit",
                ) from None
            except (OSError, EOFError, zlib.error, ValueError) as exc:
                raise ServiceError(
                    400, f"cannot decode request body ({content_encoding}): {exc}"
                ) from None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(400, f"request body is not valid JSON: {exc}") from None

    # ------------------------------------------------------------------

    def check_auth(self, method: str) -> None:
        """Enforce the server's shared token, when one is configured.

        ``GET /health`` stays open (the conventional unauthenticated
        liveness probe for load balancers and recovery probes carries
        no data), and so does ``GET /metrics`` -- monitoring scrapes
        are read-only and must keep working when the poller has no
        token.  Everything else must present ``Authorization: Bearer
        <token>``; tokens are compared in constant time.  The 401 is
        sent *before* the body is drained, so the connection is marked
        for closing like the 413 path.
        """
        token = getattr(self.server, "auth_token", None)
        if token is None:
            return
        bare = self.path.partition("?")[0].rstrip("/") or "/"
        if method == "GET" and bare in ("/health", "/metrics"):
            return
        supplied = self.headers.get("Authorization") or ""
        if hmac.compare_digest(supplied.encode(), f"Bearer {token}".encode()):
            return
        self.close_connection = True
        raise ServiceError(401, "missing or invalid authorization token")

    def route(self, method: str, path: str, body: Any) -> dict | bytes:
        """Dispatch one request; subclasses override."""
        raise ServiceError(404, f"unknown endpoint: {method} {path}")

    def _serve_metrics(self, query: str) -> None:
        """Answer ``GET /metrics``: JSON by default, ``?format=prom`` text."""
        service = getattr(self.server, "service", None)
        payload_of = getattr(service, "metrics_payload", None)
        if payload_of is None:
            raise ServiceError(404, "metrics are not available on this server")
        payload = payload_of()
        requested = urllib.parse.parse_qs(query).get("format", [""])[0]
        if requested == "prom":
            self.send_text(200, render_prometheus(payload.get("metrics", {})))
        elif requested in ("", "json"):
            self.send_json(200, payload)
        else:
            raise ServiceError(400, f"unknown metrics format: {requested!r}")

    def _handle(self, method: str) -> None:
        try:
            self.check_auth(method)
            # The body is parsed (and thereby drained) for every method,
            # not just POST: unread bytes would desync the next request
            # on a keep-alive connection, exactly what the 400/413 paths
            # guard against.  Bodyless requests parse as {}.
            body = self.read_json()
            path, _, query = self.path.partition("?")
            path = path.rstrip("/") or "/"
            #: The request's query parameters, for routes that take any.
            self.query = urllib.parse.parse_qs(query)
            if method == "GET" and path == "/metrics":
                self._serve_metrics(query)
                return
            started = time.perf_counter()
            payload = self.route(method, path, body)
            registry = getattr(
                getattr(self.server, "service", None), "metrics", None
            )
            if registry is not None:
                registry.histogram("service.request_seconds").observe(
                    time.perf_counter() - started
                )
            self.send_json(200, payload)
        except ServiceError as exc:
            self.send_json(exc.status, {"error": exc.message})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("unhandled error serving %s %s", method, self.path)
            try:
                self.send_json(500, {"error": f"internal error: {exc}"})
            except OSError:
                pass

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._handle("DELETE")


class _TrackingHTTPServer(ThreadingHTTPServer):
    """A threading server that can sever its live connections.

    ``ThreadingHTTPServer.shutdown()`` only stops the *accept* loop;
    handler threads serving established keep-alive connections live on,
    happily answering pooled clients of a server that is officially
    stopped.  Track every client socket so :meth:`close_all_connections`
    can shut them down -- that is what makes ``ServiceServer.stop()``
    mean *stopped* to a keep-alive client (its next request fails
    instead of reaching a zombie handler thread).
    """

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._client_sockets: set[socket.socket] = set()
        self._client_lock = threading.Lock()

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        with self._client_lock:
            self._client_sockets.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:  # type: ignore[override]
        with self._client_lock:
            self._client_sockets.discard(request)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        with self._client_lock:
            sockets = list(self._client_sockets)
            self._client_sockets.clear()
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


#: How often (seconds) the accept loop checks for a shutdown request.
#: ``socketserver``'s default of 0.5 s made every ``stop()`` of an idle
#: server wait up to half a second.
_POLL_INTERVAL = 0.05


class ServiceServer:
    """A threaded HTTP server running on a daemon thread.

    Subclasses provide the handler class and any service state; the
    base owns the lifecycle: :meth:`start` binds and serves in the
    background, :meth:`stop` shuts down and closes the socket, and the
    instance doubles as a context manager.  ``port=0`` (the default)
    binds an ephemeral port -- read it back from :attr:`url`.

    ``auth_token`` (optional) makes every handler require
    ``Authorization: Bearer <token>`` (``GET /health`` excepted); see
    :meth:`JSONRequestHandler.check_auth`.
    """

    handler_class: type[JSONRequestHandler] = JSONRequestHandler

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        auth_token: str | None = None,
    ) -> None:
        if auth_token is not None and not auth_token:
            raise ValueError("auth_token must be a non-empty string (or None)")
        #: The server-owned metrics registry behind ``GET /metrics``.
        #: Subclasses record into it and extend :meth:`metrics_payload`.
        self.metrics = MetricsRegistry()
        self._http = _TrackingHTTPServer((host, port), self.handler_class)
        # The handler reaches the service object through the server.
        self._http.service = self  # type: ignore[attr-defined]
        self._http.max_request_bytes = max_request_bytes  # type: ignore[attr-defined]
        self._http.auth_token = auth_token  # type: ignore[attr-defined]
        self.auth_token = auth_token
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        """The address the listening socket is *bound* to.

        May be a wildcard (``0.0.0.0``) -- a binding, not a place
        clients can connect to; :attr:`url` resolves a connectable
        address for display.
        """
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @staticmethod
    def _connectable_host(bound_host: str) -> str:
        """A host clients can actually dial, given the bound address.

        A server bound to the IPv4 wildcard (``0.0.0.0``, or ``""``)
        listens on every interface, but the wildcard itself is not a
        destination -- printing ``http://0.0.0.0:port`` as the
        copy-paste address hands the user an unconnectable URL.  Resolve
        the primary outbound interface's address instead (a connected
        UDP socket to a TEST-NET address -- no packet is ever sent, the
        kernel just picks the route), falling back to loopback on
        isolated hosts.
        """
        if bound_host not in ("0.0.0.0", ""):
            return bound_host
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
                probe.connect(("192.0.2.1", 9))  # TEST-NET-1: never routed
                return probe.getsockname()[0]
        except OSError:
            return "127.0.0.1"

    @property
    def url(self) -> str:
        """Base URL clients should use (``http://host:port``).

        For wildcard bindings this substitutes a *connectable* host
        (the primary interface's address, or loopback) -- the bound
        address itself stays available as :attr:`host`.
        """
        return f"http://{self._connectable_host(self.host)}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "ServiceServer":
        """Serve requests on a background daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                args=(_POLL_INTERVAL,),
                name=f"{type(self).__name__}@{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent).

        Live keep-alive connections are severed, not just orphaned: a
        pooled client's next request on an old socket fails fast
        instead of being answered by a leftover handler thread.
        """
        if self._thread is not None:
            self._http.shutdown()
            self._http.close_all_connections()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()

    #: Short payload tag identifying the server kind on ``/metrics``;
    #: subclasses override ("cache", "redesign").
    metrics_server_kind = "service"

    def metrics_payload(self) -> dict[str, Any]:
        """The ``GET /metrics`` JSON document.

        ``{"server": ..., "metrics": <registry snapshot>, "golden":
        <derived golden metrics>}``.  Subclasses extend -- refresh
        gauges before delegating, or union extra golden signals over
        the derived ones.
        """
        snapshot = self.metrics.snapshot()
        return {
            "server": self.metrics_server_kind,
            "metrics": snapshot,
            "golden": golden_metrics(snapshot),
        }

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI entry point)."""
        try:
            self._http.serve_forever(_POLL_INTERVAL)
        finally:
            self._http.server_close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
