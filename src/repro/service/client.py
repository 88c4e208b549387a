"""Client for the redesign service.

:class:`RedesignClient` is the programmatic counterpart of
:class:`~repro.service.RedesignServer`: submit a flow, poll its status,
fetch the ranked alternatives back as a real
:class:`~repro.core.planner.PlanningResult`.  Unlike the *cache* client
(:class:`~repro.cache.http.HTTPProfileCache`), which degrades silently
because a cache is an optimisation, the redesign client surfaces every
failure as an exception -- a lost planning job is not something to paper
over.

Transport: requests ride the shared wire client
(:class:`repro.wire.PooledJSONClient`) -- one persistent keep-alive
connection per calling thread, transparent compression of large bodies,
and optional bearer-token authentication, matching the cache tier.
"""

from __future__ import annotations

import http.client
import time
from typing import Any, Mapping

from repro.core.planner import PlanningResult
from repro.etl.graph import ETLGraph
from repro.fleet.states import TERMINAL_STATES
from repro.io.jsonflow import WireFormatError
from repro.service.redesign_server import MAX_STATUS_WAIT_S
from repro.service.results import result_from_dict
from repro.wire import PooledJSONClient, WireError

class RedesignServiceError(RuntimeError):
    """An error response (or transport failure) from the redesign service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class RedesignClient:
    """Talks JSON to one redesign server.

    Parameters
    ----------
    url:
        Base URL of the server, e.g. ``"http://127.0.0.1:8732"``.
    timeout:
        Per-request timeout in seconds.
    auth_token:
        Shared token for servers started with ``auth_token``; sent as
        ``Authorization: Bearer <token>``.  A wrong or missing token
        surfaces as a ``RedesignServiceError`` with status 401.
    poll_max:
        Accepted for compatibility and checked to be positive; unused,
        since :meth:`wait` long-polls instead of sleeping between
        status requests.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        *,
        auth_token: str | None = None,
        poll_max: float = 1.0,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive (seconds)")
        if poll_max <= 0:
            raise ValueError("poll_max must be positive (seconds)")
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.poll_max = poll_max
        self._client = PooledJSONClient(self.url, timeout, auth_token=auth_token)

    # ------------------------------------------------------------------

    def _request(
        self,
        path: str,
        payload: Mapping[str, Any] | None = None,
        method: str | None = None,
    ) -> dict:
        if method is None:
            method = "GET" if payload is None else "POST"
        try:
            return self._client.request_json(method, path, payload)
        except WireError as exc:
            raise RedesignServiceError(exc.status, exc.message) from None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise RedesignServiceError(
                0, f"redesign service unreachable: {exc}"
            ) from None

    def close(self) -> None:
        """Close the pooled connections (the client stays usable)."""
        self._client.close()

    def __enter__(self) -> "RedesignClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------

    def health(self) -> dict:
        """The server's liveness document."""
        return self._request("/health")

    def submit(
        self, flow: ETLGraph, configuration: Mapping[str, Any] | None = None
    ) -> str:
        """Submit one plan; returns the job id immediately."""
        payload: dict[str, Any] = {"flow": flow.to_dict()}
        if configuration is not None:
            payload["configuration"] = dict(configuration)
        return self._request("/plans", payload)["id"]

    def status(self, job_id: str, wait: float = 0.0) -> dict:
        """Live status/progress of one job.

        With ``wait`` (seconds) the server holds the request until the
        job is terminal or the wait elapses (a long-poll, capped
        server-side at ``MAX_STATUS_WAIT_S``).
        """
        if wait > 0:
            return self._request(f"/plans/{job_id}?wait={wait:.3f}")
        return self._request(f"/plans/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0, poll: float = 0.05) -> dict:
        """Long-poll until the job reaches a terminal state; returns its status.

        Each :meth:`status` request asks the server to hold it until the
        job is terminal, for at most the time left, ``MAX_STATUS_WAIT_S``
        and half the request timeout; the client never sleeps.  A job
        that finishes within one hold costs one request.  ``poll`` is
        accepted for compatibility and checked to be positive; it no
        longer sets an interval.

        Raises :class:`TimeoutError` if the deadline passes first.  A
        *failed* job is returned, not raised -- callers decide (fetching
        its result will raise).
        """
        if poll <= 0:
            raise ValueError("poll must be positive (seconds)")
        deadline = time.monotonic() + timeout
        hold = min(MAX_STATUS_WAIT_S, self.timeout / 2)
        while True:
            remaining = deadline - time.monotonic()
            status = self.status(job_id, wait=max(0.0, min(remaining, hold)))
            if status["status"] in TERMINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"plan {job_id} still {status['status']} after {timeout:.1f}s"
                )

    def delete(self, job_id: str) -> dict:
        """Forget a finished job server-side, freeing its result document."""
        return self._request(f"/plans/{job_id}", method="DELETE")

    def result_raw(self, job_id: str) -> dict:
        """The ranked alternatives as the raw JSON document."""
        return self._request(f"/plans/{job_id}/result")["result"]

    def result(self, job_id: str) -> PlanningResult:
        """The ranked alternatives decoded back into a :class:`PlanningResult`.

        Every alternative's flow is built before this returns.  A result
        document of another wire format raises
        :class:`RedesignServiceError` (status 0), never a wrong decode.
        """
        try:
            return result_from_dict(self.result_raw(job_id))
        except WireFormatError as exc:
            raise RedesignServiceError(0, f"plan {job_id}: {exc}") from None

    def plan(
        self,
        flow: ETLGraph,
        configuration: Mapping[str, Any] | None = None,
        timeout: float = 120.0,
    ) -> PlanningResult:
        """Submit, wait and decode in one call (the one-liner for scripts)."""
        job_id = self.submit(flow, configuration)
        status = self.wait(job_id, timeout=timeout)
        if status["status"] == "failed":
            raise RedesignServiceError(500, status.get("error", "plan failed"))
        return self.result(job_id)
