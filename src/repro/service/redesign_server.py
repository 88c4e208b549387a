"""The redesign service: POIESIS planning as a network endpoint.

:class:`RedesignServer` turns the in-process redesign loop into a
service: clients ``POST /plans`` a flow document (the
:mod:`repro.io.jsonflow` structure) plus a processing configuration and
get a job id back immediately.  Every job goes through a
:class:`~repro.fleet.JobQueue`: by default a private in-memory one that
the server drains with ``workers`` in-process
:class:`~repro.fleet.FleetWorker` threads, **all sharing one
profile-cache tier** injected into their planners, so concurrent clients
redesigning similar flows warm each other up; given ``queue=``, a
durable queue file that external workers drain.  ``GET /plans/<id>``
reports progress -- for a job planned in this process the
evaluated-alternatives counter advances as the streaming pipeline
yields, and the incremental
:class:`~repro.core.alternatives.GenerationStats` / cache statistics come
along -- and ``GET /plans/<id>/result`` returns the ranked alternatives
as JSON (:func:`~repro.service.results.result_to_dict`).

Endpoints (see ``docs/service.md``):

========  ====================  =========================================
method    path                  meaning
========  ====================  =========================================
POST      ``/plans``            submit ``{"flow": ..., "configuration": ...}`` -> ``{"id": ...}``
GET       ``/plans/<id>``       status + live progress / stats
GET       ``/plans/<id>/result``  ranked alternatives (409 until done)
DELETE    ``/plans/<id>``       forget a finished job (409 while running)
GET       ``/plans``            all job summaries
GET       ``/stats``            shared cache tier statistics
GET       ``/health``           liveness + worker-pool shape
========  ====================  =========================================

Finished jobs are retained as queue rows (status counters, the run's
summary and the encoded result document; the planning graph is dropped
at completion) and only up to ``max_retained_jobs`` rows are kept --
the oldest finished ones are evicted as new plans arrive, so storage
does not grow with the submission history.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # repro.fleet imports this module; annotation only
    from repro.fleet.queue import JobQueue
    from repro.fleet.worker import RunningJob

from repro.cache import CacheBackend, ProfileCache, cache_stats_dict
from repro.core.configuration import MeasureConstraint, ProcessingConfiguration
from repro.etl.graph import ETLGraph
from repro.etl.validation import validate_flow
from repro.fleet.states import TERMINAL_STATES
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.patterns.registry import PatternRegistry
from repro.quality.framework import QualityCharacteristic
from repro.service.common import (
    MAX_REQUEST_BYTES,
    JSONRequestHandler,
    ServiceError,
    ServiceServer,
)

#: The longest a ``GET /plans/<id>?wait=<s>`` status long-poll blocks;
#: a longer ``wait`` is cut to it.  Kept below the clients' default
#: 30-second request timeout.
MAX_STATUS_WAIT_S = 10.0

#: A long-poll on a shared queue file re-reads the job's row, since
#: another process's ack cannot wake it: first after ``_REREAD_S``, then
#: at doubling intervals up to ``_REREAD_MAX_S`` -- the schedule of the
#: sleeping client poll the long-poll replaced, so a waiting client
#: reads the file no more often than it did.
_REREAD_S = 0.05
_REREAD_MAX_S = 1.0

#: Configuration fields a request may NOT set: the service owns the
#: cache tier (one shared backend for all its workers) and the metrics
#: registry (servers inject their own -- a registry is not a JSON value
#: anyway).
_RESERVED_FIELDS = frozenset(
    {
        "cache_dir",
        "cache_max_bytes",
        "cache_timeout",
        "cache_auth_token",
        "cache_urls",
        "metrics_registry",
    }
)

#: Integer fields accepted verbatim from the request document.  JSON
#: ``true``/``false`` are not integers here, although ``bool`` is an
#: ``int`` subclass in Python.
_INTEGER_FIELDS = frozenset(
    {
        "pattern_budget",
        "max_points_per_pattern",
        "max_alternatives",
        "simulation_runs",
        "seed",
        "eval_batch_size",
    }
)


def configuration_from_request(
    data: Mapping[str, Any] | None, registry: MetricsRegistry | None = None
) -> ProcessingConfiguration:
    """Build a :class:`ProcessingConfiguration` from a request document.

    Accepts the integer knobs (JSON integers, not booleans) and
    ``policy`` (a string) verbatim, ``pattern_names`` as an array,
    ``goal_priorities`` as a ``{characteristic: weight}`` object,
    ``skyline_characteristics`` as an array of characteristic names and
    ``constraints`` as an array of ``{target, min_value, max_value}``
    objects.  Unknown or reserved (cache-tier, metrics-registry) fields
    are rejected with a 400 -- the service owns the reserved ones.
    ``"metrics_enabled": true`` turns planner metrics on, into
    ``registry`` (the planning process's; the process default when
    ``None``) -- a request names no registry, it is not a JSON value.
    """
    if data is None:
        data = {}
    if not isinstance(data, Mapping):
        raise ServiceError(400, '"configuration" must be a JSON object')
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        if name in _RESERVED_FIELDS:
            raise ServiceError(
                400,
                f"configuration field {name!r} is owned by the service (one shared "
                "cache tier and metrics registry per server); "
                "remove it from the request",
            )
        if name in _INTEGER_FIELDS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ServiceError(400, f"{name} must be an integer, got {value!r}")
            kwargs[name] = value
        elif name == "policy":
            if not isinstance(value, str):
                raise ServiceError(400, f"policy must be a string, got {value!r}")
            kwargs[name] = value
        elif name == "metrics_enabled":
            if not isinstance(value, bool):
                raise ServiceError(400, "metrics_enabled must be true or false")
            if value:
                kwargs["metrics_registry"] = registry or default_registry()
        elif name == "pattern_names":
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ServiceError(
                    400, f"pattern_names must be an array of strings, got {value!r}"
                )
            kwargs[name] = tuple(value)
        elif name == "goal_priorities":
            try:
                kwargs[name] = {
                    QualityCharacteristic(characteristic): float(weight)
                    for characteristic, weight in value.items()
                }
            except (AttributeError, TypeError, ValueError) as exc:
                raise ServiceError(400, f"malformed goal_priorities: {exc}") from None
        elif name == "skyline_characteristics":
            try:
                kwargs[name] = tuple(QualityCharacteristic(entry) for entry in value)
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, f"malformed skyline_characteristics: {exc}") from None
        elif name == "constraints":
            kwargs[name] = _constraints_from_request(value)
        else:
            raise ServiceError(400, f"unknown configuration field: {name!r}")
    try:
        return ProcessingConfiguration(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, f"invalid configuration: {exc}") from None


def _constraints_from_request(value: Any) -> tuple[MeasureConstraint, ...]:
    """``constraints`` as an array of ``{target, min_value, max_value}`` objects.

    The target is a string; a bound is a JSON number or ``null`` (never
    ``true``/``false``, although ``bool`` is an ``int`` in Python).
    """
    if not isinstance(value, list):
        raise ServiceError(400, f"malformed constraints: expected an array, got {value!r}")
    constraints = []
    for entry in value:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("target"), str):
            raise ServiceError(
                400, f"malformed constraints: {entry!r} is not an object with a string target"
            )
        bounds = {}
        for bound in ("min_value", "max_value"):
            number = entry.get(bound)
            if number is not None and (
                not isinstance(number, (int, float)) or isinstance(number, bool)
            ):
                raise ServiceError(
                    400, f"malformed constraints: {bound} must be a number or null, got {number!r}"
                )
            bounds[bound] = number
        constraints.append(MeasureConstraint(target=entry["target"], **bounds))
    return tuple(constraints)


class _RedesignHandler(JSONRequestHandler):
    def _wait_parameter(self) -> float:
        """The ``?wait=<seconds>`` of a status request (0 without one)."""
        values = self.query.get("wait")
        if not values:
            return 0.0
        try:
            wait = float(values[-1])
        except ValueError:
            wait = math.nan
        if not 0.0 <= wait < math.inf:
            raise ServiceError(
                400, f"wait must be a non-negative number of seconds, got {values[-1]!r}"
            )
        return wait

    def route(self, method: str, path: str, body: Any) -> dict | bytes:
        service: RedesignServer = self.server.service  # type: ignore[attr-defined]
        if method == "POST" and path == "/plans":
            return service.submit(body)
        if method == "GET":
            if path == "/health":
                return service.health_payload()
            if path == "/stats":
                return {"cache": cache_stats_dict(service.cache)}
            if path == "/plans":
                return {"plans": service.plans_payload()}
            if path.startswith("/plans/"):
                remainder = path[len("/plans/"):]
                if remainder.endswith("/result"):
                    return service.result(remainder[: -len("/result")])
                return service.status(remainder, wait=self._wait_parameter())
        if method == "DELETE" and path.startswith("/plans/"):
            return service.delete(path[len("/plans/"):])
        raise ServiceError(404, f"unknown endpoint: {method} {path}")


class RedesignServer(ServiceServer):
    """Redesign-as-a-service: a front-end over one job queue.

    Parameters
    ----------
    cache:
        The profile-cache tier every local worker's planners share;
        defaults to an in-process :class:`~repro.cache.ProfileCache`.
        Hand it a disk or tiered backend to make the service survive
        restarts warm.
    workers:
        How many in-process :class:`~repro.fleet.FleetWorker` threads
        drain the private queue: at most this many submitted plans run
        concurrently, the rest wait in submission order.
    palette:
        Optional pattern palette forwarded to every planner.
    max_retained_jobs:
        Bound on the queue's rows, enforced at each submission: the
        oldest *finished* (done/failed) jobs beyond it -- and their
        result documents -- are forgotten, so a long-running server
        does not grow with every plan ever submitted.  Queued and
        running jobs are never evicted.  ``None`` retains everything;
        clients can also free a finished job eagerly with
        ``DELETE /plans/<id>``.
    queue:
        A :class:`repro.fleet.JobQueue` turning this server into the
        *front-end of a worker fleet*: it starts no workers and plans
        nothing; :class:`repro.fleet.FleetWorker` processes
        (``tools/worker.py``) drain the queue.  Without it the server
        opens a private ``JobQueue(":memory:")`` and drains it with
        ``workers`` local threads.  Submissions are validated either way
        (malformed flows and reserved configuration fields fail fast
        with a 400), and the HTTP API is the same.  The caller owns a
        given queue's lifetime (it is not closed by :meth:`stop`).  See
        ``docs/fleet.md``.
    host / port / max_request_bytes / auth_token:
        As in :class:`~repro.service.common.ServiceServer` (with
        ``auth_token`` set, clients authenticate with
        ``RedesignClient(..., auth_token=...)``).
    """

    handler_class = _RedesignHandler

    def __init__(
        self,
        cache: CacheBackend | None = None,
        workers: int = 2,
        palette: PatternRegistry | None = None,
        max_retained_jobs: int | None = 256,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        auth_token: str | None = None,
        queue: "JobQueue | None" = None,
    ) -> None:
        # repro.fleet.worker imports this module for its request decoding.
        from repro.fleet import FleetWorker, JobQueue

        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_retained_jobs is not None and max_retained_jobs < 1:
            raise ValueError("max_retained_jobs must be at least 1 (or None)")
        super().__init__(
            host=host,
            port=port,
            max_request_bytes=max_request_bytes,
            auth_token=auth_token,
        )
        self.cache: CacheBackend = cache if cache is not None else ProfileCache()
        self.workers = workers
        self.palette = palette
        self.max_retained_jobs = max_retained_jobs
        self._owns_queue = queue is None
        self.queue = JobQueue(":memory:") if queue is None else queue
        self._stopping = threading.Event()
        # Server-side observability: the shared tier and the queue
        # report into the server's registry unless the caller wired
        # their own.
        for component in (self.cache, self.queue):
            if getattr(component, "metrics_registry", False) is None:
                component.metrics_registry = self.metrics  # type: ignore[attr-defined]
        self._workers = [
            FleetWorker(
                self.queue,
                worker_id=f"local-{index}",
                cache=self.cache,
                palette=palette,
                registry=self.metrics,
            ).start()
            for index in range(workers if self._owns_queue else 0)
        ]

    # ------------------------------------------------------------------
    # Job API (also usable in-process, without HTTP)
    # ------------------------------------------------------------------

    def submit(self, body: Any) -> dict:
        """Validate one ``POST /plans`` document and enqueue the job.

        A bad request fails the submitter here, never a worker later;
        the raw documents are what the worker decodes.
        """
        if not isinstance(body, dict):
            raise ServiceError(400, "request body must be a JSON object")
        flow_doc = body.get("flow")
        if not isinstance(flow_doc, dict):
            raise ServiceError(400, 'the request must carry a "flow" document object')
        try:
            flow = ETLGraph.from_dict(flow_doc)
            validate_flow(flow, raise_on_error=True)
        except ServiceError:
            raise
        except Exception as exc:
            raise ServiceError(400, f"malformed flow document: {exc}") from None
        configuration_from_request(body.get("configuration"))
        job_id = self.queue.enqueue(
            {"flow": flow_doc, "configuration": body.get("configuration") or {}},
            max_retained_jobs=self.max_retained_jobs,
        )
        return {"id": job_id, "status": "queued"}

    def jobs_snapshot(self) -> list["RunningJob"]:
        """The jobs local workers are planning right now."""
        jobs = (worker.current for worker in self._workers)
        return [job for job in jobs if job is not None]

    def _payload(self, entry: dict) -> dict:
        """A queue row as this API's status document.

        The queue's ``leased`` state is this API's ``running``; a job a
        local worker is planning adds its live ``evaluated`` counter and
        ``generation`` / ``cache`` stats.  The lease-protocol fields
        (attempts, worker, stalled) ride along for observability.
        """
        if entry["status"] == "leased":
            entry["status"] = "running"
            for job in self.jobs_snapshot():
                if job.job_id == entry["id"]:
                    entry["evaluated"] = job.evaluated
                    entry.update(job.summary())
        return entry

    def plans_payload(self) -> list[dict]:
        """The ``GET /plans`` listing."""
        return [self._payload(entry) for entry in self.queue.jobs()]

    def health_payload(self) -> dict:
        """The ``GET /health`` document: liveness, queue and worker shape."""
        return {
            "status": "ok",
            "mode": "fleet",
            "workers": self.workers,
            "jobs": len(self.queue),
            "queue": self.queue.stats(),
            "fleet_workers": self.queue.workers(),
        }

    metrics_server_kind = "redesign"

    def metrics_payload(self) -> dict:
        """The base payload plus queue gauges and queue-derived latency.

        Acks may happen in other processes, so queue depth, worker
        liveness and the end-to-end (enqueue to ack) plan-latency
        percentiles are refreshed from the queue at scrape time.
        """
        queue_stats = self.queue.stats()
        workers_alive = len(
            self.queue.workers(active_within=self.queue.lease_timeout * 2)
        )
        latency = self.queue.job_latency()
        # Refresh the gauges before the snapshot below captures them.
        self.metrics.gauge("queue.depth").set(queue_stats["depth"])
        self.metrics.gauge("queue.expired_leases").set(queue_stats["expired"])
        self.metrics.gauge("fleet.workers_alive").set(workers_alive)
        payload = super().metrics_payload()
        payload["queue"] = queue_stats
        golden = payload["golden"]
        golden["queue_depth"] = float(queue_stats["depth"])
        golden["workers_alive"] = float(workers_alive)
        if latency["count"]:
            golden["plan_count"] = latency["count"]
            golden["plan_p50_seconds"] = latency["p50"]
            golden["plan_p99_seconds"] = latency["p99"]
        return payload

    def status(self, job_id: str, wait: float = 0.0) -> dict:
        """The ``GET /plans/<id>`` payload.

        With ``wait`` (seconds, capped at :data:`MAX_STATUS_WAIT_S`) the
        call is a long-poll: it returns as soon as the job is terminal,
        when the wait elapses, or when the server stops.  An ack through
        this server's queue wakes it; on a shared queue file, which other
        processes ack, it also re-reads the row after ``_REREAD_S``, then
        at doubling intervals up to ``_REREAD_MAX_S``.
        """
        deadline = time.monotonic() + min(wait, MAX_STATUS_WAIT_S)
        shared = self.queue.path != ":memory:"
        slice_s = _REREAD_S
        while True:
            seen = self.queue.acked
            entry = self.queue.status(job_id)
            if entry is None:
                raise ServiceError(404, f"unknown plan id: {job_id!r}")
            remaining = deadline - time.monotonic()
            if entry["status"] in TERMINAL_STATES or remaining <= 0 or self._stopping.is_set():
                return self._payload(entry)
            self.queue.wait_for_ack(
                seen, min(remaining, slice_s) if shared else remaining, self._stopping
            )
            slice_s = min(slice_s * 2, _REREAD_MAX_S)
            if self._stopping.is_set():
                return self._payload(entry)

    def result(self, job_id: str) -> bytes:
        """The ``GET /plans/<id>/result`` body (409 until the job is done).

        The result document goes out as the JSON text the worker's ack
        stored, never parsed and re-encoded here.
        """
        entry = self.status(job_id)
        if entry["status"] == "failed":
            raise ServiceError(409, f"plan {job_id} failed: {entry.get('error')}")
        document = self.queue.result_json(job_id) if entry["status"] == "done" else None
        if document is None:
            raise ServiceError(409, f"plan {job_id} is still {entry['status']}")
        return f'{{"id": {json.dumps(job_id)}, "result": {document}}}'.encode()

    def delete(self, job_id: str) -> dict:
        """Forget a finished job (``DELETE /plans/<id>``; 409 while it runs)."""
        entry = self.status(job_id)
        if not self.queue.delete(job_id):
            raise ServiceError(409, f"plan {job_id} is still {entry['status']}")
        return {"id": job_id, "deleted": True}

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop accepting requests, let local workers finish their jobs.

        A private queue is closed with the server (jobs still waiting in
        it are dropped); a given queue is caller-owned -- its workers
        drain it independently of this front-end.
        """
        self._stopping.set()
        self.queue.wake()  # status long-polls return now
        super().stop()
        for worker in self._workers:
            worker.stop()
        if self._owns_queue:
            self.queue.close()
        self.cache.flush()
