"""The redesign service: POIESIS planning as a network endpoint.

:class:`RedesignServer` turns the in-process redesign loop into a
service: clients ``POST /plans`` a flow document (the
:mod:`repro.io.jsonflow` structure) plus a processing configuration and
get a job id back immediately; a bounded worker pool runs one
:class:`~repro.core.session.RedesignSession` per job, **all sharing one
profile-cache tier** injected into their planners, so concurrent clients
redesigning similar flows warm each other up.  ``GET /plans/<id>``
reports live progress -- the evaluated-alternatives counter advances as
the PR 1 streaming pipeline yields, and the incremental
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

Finished jobs are retained in compacted form (status counters plus the
result document; the planning graph is dropped at completion) and only
up to ``max_retained_jobs`` of them -- older ones are evicted as new
plans arrive, so memory does not grow with the submission history.
"""

from __future__ import annotations

import itertools
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # repro.fleet imports this module; annotation only
    from repro.fleet.queue import JobQueue

from repro.cache import CacheBackend, ProfileCache, cache_stats_dict
from repro.core.configuration import MeasureConstraint, ProcessingConfiguration
from repro.core.planner import Planner, PlanningResult
from repro.core.session import RedesignSession
from repro.etl.graph import ETLGraph
from repro.etl.validation import validate_flow
from repro.patterns.registry import PatternRegistry
from repro.quality.framework import QualityCharacteristic
from repro.service.common import (
    MAX_REQUEST_BYTES,
    JSONRequestHandler,
    ServiceError,
    ServiceServer,
)
from repro.service.results import result_to_dict

logger = logging.getLogger("repro.service.redesign")

#: Configuration fields a request may NOT set: the service owns the
#: cache tier (one shared backend for the whole worker pool), the
#: metrics registry (servers inject their own -- a registry is not a
#: JSON value anyway) and evaluation concurrency (the server's
#: ``workers``; a multi-worker request would fork a process pool from
#: inside the threaded server).
_RESERVED_FIELDS = frozenset(
    {
        "cache_dir",
        "cache_max_bytes",
        "cache_timeout",
        "cache_auth_token",
        "cache_urls",
        "metrics_registry",
        "parallel_workers",
    }
)

#: Scalar/sequence fields accepted verbatim from the request document.
_SIMPLE_FIELDS = frozenset(
    {
        "policy",
        "pattern_budget",
        "max_points_per_pattern",
        "max_alternatives",
        "simulation_runs",
        "seed",
        "screening_beam",
        "eval_batch_size",
        "cache_profiles",
        "metrics_enabled",
    }
)


def configuration_from_request(data: Mapping[str, Any] | None) -> ProcessingConfiguration:
    """Build a :class:`ProcessingConfiguration` from a request document.

    Accepts the scalar knobs verbatim, ``pattern_names`` as an array,
    ``goal_priorities`` as a ``{characteristic: weight}`` object,
    ``skyline_characteristics`` as an array of characteristic names and
    ``constraints`` as an array of ``{target, min_value, max_value}``
    objects.  Unknown or reserved (cache-tier, metrics-registry,
    worker-count) fields are rejected with a 400 -- the service owns
    those.
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
                "cache tier, metrics registry and worker pool per server); "
                "remove it from the request",
            )
        if name in _SIMPLE_FIELDS:
            kwargs[name] = value
        elif name == "pattern_names":
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
            try:
                kwargs[name] = tuple(
                    MeasureConstraint(
                        target=entry["target"],
                        min_value=entry.get("min_value"),
                        max_value=entry.get("max_value"),
                    )
                    for entry in value
                )
            except (KeyError, TypeError) as exc:
                raise ServiceError(400, f"malformed constraints: {exc}") from None
        else:
            raise ServiceError(400, f"unknown configuration field: {name!r}")
    try:
        return ProcessingConfiguration(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ServiceError(400, f"invalid configuration: {exc}") from None


@dataclass
class RedesignJob:
    """One submitted planning job and its lifecycle state.

    While a job runs, progress is read live off its planner/session;
    once it reaches a terminal state those references are dropped (the
    planning graph of a finished job is pure memory overhead on a
    long-running server) and the status payload is served from the
    compact fields captured at completion.
    """

    job_id: str
    status: str = "queued"  # queued -> running -> done | failed
    evaluated: int = 0
    error: str | None = None
    planner: Planner | None = None
    session: RedesignSession | None = None
    result: PlanningResult | None = None
    result_doc: dict | None = None
    generation: dict | None = None
    cache: dict | None = None
    alternatives: int | None = None
    skyline_size: int | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def finish(self) -> None:
        """Capture the terminal status fields and release the planning state.

        Must never raise: it runs in the worker's exception handler too,
        and a failure here (e.g. an injected cache backend whose stats
        calls are as broken as whatever failed the plan) would strand
        the job in ``running`` forever.  Stats are best-effort.
        """
        planner, session, result = self.planner, self.session, self.result
        try:
            if planner is not None and self.generation is None:
                stats = getattr(planner.generator, "last_stats", None)
                if stats is not None:
                    self.generation = stats.as_dict()
            if session is not None and self.cache is None:
                self.cache = session.cache_stats()
        except Exception:
            pass
        if result is not None:
            self.alternatives = len(result.alternatives)
            self.skyline_size = len(result.skyline_indices)
        self.planner = None
        self.session = None
        self.result = None

    def status_payload(self) -> dict[str, Any]:
        """The ``GET /plans/<id>`` document (safe to read while running)."""
        payload: dict[str, Any] = {
            "id": self.job_id,
            "status": self.status,
            "evaluated": self.evaluated,
        }
        if self.error is not None:
            payload["error"] = self.error
        generation = self.generation
        planner = self.planner
        if generation is None and planner is not None:
            stats = getattr(planner.generator, "last_stats", None)
            if stats is not None:
                generation = stats.as_dict()
        if generation is not None:
            payload["generation"] = generation
        cache = self.cache
        session = self.session
        if cache is None and session is not None:
            try:
                cache = session.cache_stats()
            except Exception:
                # Live stats are best-effort: a cache tier broken enough
                # to raise here must not turn a status poll into a 500.
                cache = None
        if cache is not None:
            payload["cache"] = cache
        if self.alternatives is not None:
            payload["alternatives"] = self.alternatives
            payload["skyline_size"] = self.skyline_size
        return payload


class _RedesignHandler(JSONRequestHandler):
    def route(self, method: str, path: str, body: Any) -> dict:
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
                return service.status(remainder)
        if method == "DELETE" and path.startswith("/plans/"):
            return service.delete(path[len("/plans/"):])
        raise ServiceError(404, f"unknown endpoint: {method} {path}")


class RedesignServer(ServiceServer):
    """Redesign-as-a-service on a bounded worker pool with one shared cache.

    Parameters
    ----------
    cache:
        The profile-cache tier every worker session shares; defaults to
        an in-process :class:`~repro.cache.ProfileCache`.  Hand it a
        disk or tiered backend to make the service survive restarts
        warm.
    workers:
        Size of the planning pool: at most this many submitted plans run
        concurrently, the rest queue in submission order.
    palette:
        Optional pattern palette forwarded to every planner.
    max_retained_jobs:
        Bound on the job table: when a new submission would exceed it,
        the oldest *finished* (done/failed) jobs -- and their result
        documents -- are forgotten, so a long-running server's memory
        does not grow with every plan ever submitted.  Queued and
        running jobs are never evicted.  ``None`` retains everything;
        clients can also free a finished job eagerly with
        ``DELETE /plans/<id>``.
    queue:
        A :class:`repro.fleet.JobQueue` turning this server into the
        *front-end of a worker fleet*: submissions are validated here
        exactly as in-process (malformed flows and reserved
        configuration fields still fail fast with a 400) but then
        enqueued durably instead of run on the local pool, to be
        drained by :class:`repro.fleet.FleetWorker` processes
        (``tools/worker.py``).  Status/result/delete are served from
        the queue; the HTTP API is unchanged, so
        :class:`~repro.service.client.RedesignClient` works against
        either mode.  The caller owns the queue's lifetime (it is not
        closed by :meth:`stop`).  See ``docs/fleet.md``.
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
        # Server-side observability: the shared tier (and, in fleet
        # mode, the queue) report into the server's registry unless the
        # caller wired their own.
        if getattr(self.cache, "metrics_registry", False) is None:
            self.cache.metrics_registry = self.metrics  # type: ignore[attr-defined]
        if queue is not None and getattr(queue, "metrics_registry", False) is None:
            queue.metrics_registry = self.metrics
        self.workers = workers
        self.palette = palette
        self.max_retained_jobs = max_retained_jobs
        self.queue = queue
        self.jobs: dict[str, RedesignJob] = {}
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)
        # In queue mode the fleet plans; no local pool is started.
        self._pool = (
            None
            if queue is not None
            else ThreadPoolExecutor(max_workers=workers, thread_name_prefix="redesign-worker")
        )

    # ------------------------------------------------------------------
    # Job API (also usable in-process, without HTTP)
    # ------------------------------------------------------------------

    def submit(self, body: Any) -> dict:
        """Validate one ``POST /plans`` document and enqueue the job."""
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
        configuration = configuration_from_request(body.get("configuration"))
        if self.queue is not None:
            # Fleet mode: validated above exactly as in-process (a bad
            # request must fail the submitter, not a worker later), then
            # persisted as the raw documents the workers re-decode.
            job_id = self.queue.enqueue(
                {"flow": flow_doc, "configuration": body.get("configuration") or {}}
            )
            return {"id": job_id, "status": "queued"}
        with self._jobs_lock:
            job = RedesignJob(job_id=f"plan-{next(self._ids)}")
            self.jobs[job.job_id] = job
            self._evict_finished_jobs()
        self._pool.submit(self._run, job, flow, configuration)
        return {"id": job.job_id, "status": job.status}

    def _evict_finished_jobs(self) -> None:
        """Forget the oldest terminal jobs beyond the retention cap.

        Caller holds ``_jobs_lock``.  ``jobs`` is insertion-ordered, so
        the first terminal entries are the oldest submissions.
        """
        if self.max_retained_jobs is None:
            return
        excess = len(self.jobs) - self.max_retained_jobs
        if excess <= 0:
            return
        stale = [
            job_id
            for job_id, job in self.jobs.items()
            if job.status in ("done", "failed")
        ]
        for job_id in stale[:excess]:
            del self.jobs[job_id]

    def _run(self, job: RedesignJob, flow: ETLGraph, configuration: ProcessingConfiguration) -> None:
        job.status = "running"
        if configuration.metrics_enabled and configuration.metrics_registry is None:
            # Requests may turn metrics on but cannot carry a registry
            # (it is not a JSON value): plan-internal instruments land
            # in the server's registry, behind GET /metrics.
            configuration = replace(configuration, metrics_registry=self.metrics)
        try:
            with self.metrics.timer("service.plan_seconds"):
                planner = Planner(
                    palette=self.palette,
                    configuration=configuration,
                    profile_cache=self.cache,
                )
                session = RedesignSession(flow, planner=planner)
                job.planner = planner
                job.session = session

                def on_evaluated(_alternative) -> None:
                    with job._lock:
                        job.evaluated += 1

                iteration = session.iterate(on_evaluated=on_evaluated)
            job.result = iteration.result
            job.result_doc = result_to_dict(iteration.result)
            job.finish()
            job.status = "done"
            self.metrics.counter("service.plans_done").inc()
        except Exception as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            job.finish()
            job.status = "failed"
            self.metrics.counter("service.plans_failed").inc()
            logger.warning("plan %s failed: %s", job.job_id, job.error)

    def _job(self, job_id: str) -> RedesignJob:
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            raise ServiceError(404, f"unknown plan id: {job_id!r}")
        return job

    def jobs_snapshot(self) -> list[RedesignJob]:
        with self._jobs_lock:
            return list(self.jobs.values())

    def plans_payload(self) -> list[dict]:
        """The ``GET /plans`` listing, from whichever job store is live."""
        if self.queue is not None:
            return [self._queue_payload(entry) for entry in self.queue.jobs()]
        return [job.status_payload() for job in self.jobs_snapshot()]

    def health_payload(self) -> dict:
        """The ``GET /health`` document (adds fleet shape in queue mode)."""
        payload: dict[str, Any] = {"status": "ok", "workers": self.workers}
        if self.queue is not None:
            payload["mode"] = "fleet"
            payload["queue"] = self.queue.stats()
            payload["fleet_workers"] = self.queue.workers()
        else:
            payload["jobs"] = len(self.jobs)
        return payload

    metrics_server_kind = "redesign"

    def metrics_payload(self) -> dict:
        """The base payload plus fleet gauges and queue-derived latency.

        In fleet mode the front-end never plans (and acks happen in
        worker processes), so queue depth, worker liveness and the
        end-to-end plan-latency percentiles are refreshed from the
        durable queue at scrape time; in-process mode reads plan
        latency straight from the ``service.plan_seconds`` histogram.
        """
        queue_stats = workers_alive = latency = None
        if self.queue is not None:
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
        if self.queue is not None:
            payload["queue"] = queue_stats
            golden = payload["golden"]
            golden["queue_depth"] = float(queue_stats["depth"])
            golden["workers_alive"] = float(workers_alive)
            if latency and latency.get("count"):
                golden["plan_count"] = latency["count"]
                golden["plan_p50_seconds"] = latency["p50"]
                golden["plan_p99_seconds"] = latency["p99"]
        else:
            payload["jobs"] = len(self.jobs)
        return payload

    @staticmethod
    def _queue_payload(entry: dict) -> dict:
        """A queue row as a status document API-compatible with in-process.

        The queue's ``leased`` state is this API's ``running``; the
        lease-protocol fields (attempts, worker, stalled) ride along for
        observability.
        """
        payload = dict(entry)
        if payload.get("status") == "leased":
            payload["status"] = "running"
        return payload

    def status(self, job_id: str) -> dict:
        """The ``GET /plans/<id>`` payload."""
        if self.queue is not None:
            entry = self.queue.status(job_id)
            if entry is None:
                raise ServiceError(404, f"unknown plan id: {job_id!r}")
            return self._queue_payload(entry)
        return self._job(job_id).status_payload()

    def result(self, job_id: str) -> dict:
        """The ``GET /plans/<id>/result`` payload (409 until the job is done)."""
        if self.queue is not None:
            entry = self.queue.status(job_id)
            if entry is None:
                raise ServiceError(404, f"unknown plan id: {job_id!r}")
            if entry["status"] == "failed":
                raise ServiceError(409, f"plan {job_id} failed: {entry.get('error')}")
            result_doc = self.queue.result(job_id) if entry["status"] == "done" else None
            if result_doc is None:
                status = self._queue_payload(entry)["status"]
                raise ServiceError(409, f"plan {job_id} is still {status}")
            return {"id": job_id, "result": result_doc}
        job = self._job(job_id)
        if job.status == "failed":
            raise ServiceError(409, f"plan {job_id} failed: {job.error}")
        if job.status != "done" or job.result_doc is None:
            raise ServiceError(409, f"plan {job_id} is still {job.status}")
        return {"id": job.job_id, "result": job.result_doc}

    def delete(self, job_id: str) -> dict:
        """Forget a finished job (``DELETE /plans/<id>``; 409 while it runs)."""
        if self.queue is not None:
            entry = self.queue.status(job_id)
            if entry is None:
                raise ServiceError(404, f"unknown plan id: {job_id!r}")
            if not self.queue.delete(job_id):
                status = self._queue_payload(entry)["status"]
                raise ServiceError(409, f"plan {job_id} is still {status}")
            return {"id": job_id, "deleted": True}
        with self._jobs_lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise ServiceError(404, f"unknown plan id: {job_id!r}")
            if job.status not in ("done", "failed"):
                raise ServiceError(409, f"plan {job_id} is still {job.status}")
            del self.jobs[job_id]
        return {"id": job_id, "deleted": True}

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop accepting requests and wait for running jobs to finish.

        In queue mode there is no local pool, and the queue itself is
        caller-owned -- workers drain it independently of this front-end.
        """
        super().stop()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self.cache is not None:
            self.cache.flush()
