"""The pull-based redesign worker: lease -> plan -> heartbeat -> ack.

A :class:`FleetWorker` drains the :class:`~repro.fleet.queue.JobQueue`
that a :class:`~repro.service.RedesignServer` fills: the server's own
private queue (it runs its ``workers`` as in-process FleetWorker
threads), or a durable queue file shared with ``tools/worker.py``
processes.  Either way this is the one place a job is planned.  The
worker owns a full planning stack -- its own
:class:`~repro.core.planner.Planner` per job, wired to whatever
profile-cache tier it was given (the server's, or a
:class:`~repro.fleet.sharded.ShardedProfileCache` over the shard
servers) -- and follows the queue's lease protocol:

* lease the oldest available job (``None`` -> wait ``poll_interval``,
  or less when the job is enqueued through the same queue instance),
* plan it, publishing the running job (:attr:`FleetWorker.current`:
  id, planner, session, live evaluated counter) before the plan starts
  and heartbeating on a background timer so the lease never expires
  while the worker is alive (each heartbeat also records the evaluated
  counter in the queue),
* ack ``done`` with the result document
  (:func:`~repro.service.results.result_to_dict`) and the run's summary
  (``generation``, ``cache``, ``alternatives``, ``skyline_size``), or
  ``failed`` with the error.

Crash behaviour needs no code: a worker that dies mid-plan simply stops
heartbeating, its lease expires, and the next idle worker re-leases the
job.  If the dead worker turns out to be merely *slow* and acks after
the re-lease, the queue rejects the zombie ack -- exactly one result
row survives.  Tests drive this path deterministically with
:meth:`FleetWorker.kill`, which makes the worker abandon its current
job without acking (and stop), indistinguishable from a crash as far as
the queue is concerned; a killed worker (or a restarted
``tools/worker.py`` process) just re-registers and keeps draining.

Run one in-process (``worker.start()`` -- a daemon thread -- or
``worker.run()`` inline) for tests, or as a process via
``tools/worker.py`` / ``tools/serve.py fleet``.
"""

from __future__ import annotations

import logging
import os
import threading
import uuid
from dataclasses import dataclass
from typing import Any, Callable

from repro.cache import CacheBackend
from repro.core.planner import Planner, PlanningResult
from repro.core.session import RedesignSession
from repro.etl.graph import ETLGraph
from repro.fleet.queue import JobQueue, LeasedJob
from repro.obs.metrics import MetricsRegistry, maybe_timer
from repro.patterns.registry import PatternRegistry
from repro.service.redesign_server import configuration_from_request
from repro.service.results import result_to_dict

logger = logging.getLogger(__name__)

#: How long an idle worker sleeps between lease attempts.
DEFAULT_POLL_INTERVAL = 0.2


class _JobAbandoned(Exception):
    """Internal: stop planning the current job *without acking it*."""


@dataclass
class RunningJob:
    """The job a worker is planning, readable from other threads.

    ``planner`` and ``session`` are set before planning starts;
    ``evaluated`` counts the alternatives profiled so far.
    """

    job_id: str
    planner: Planner | None = None
    session: RedesignSession | None = None
    evaluated: int = 0

    def summary(self, result: PlanningResult | None = None) -> dict[str, Any]:
        """``generation`` / ``cache`` stats, plus result sizes once done.

        Never raises: it runs on the failure path too, and a cache tier
        broken enough to raise in its stats calls must not strand the
        job un-acked.  Stats are best-effort.
        """
        summary: dict[str, Any] = {}
        if self.planner is None:
            return summary
        try:
            stats = getattr(self.planner.generator, "last_stats", None)
            if stats is not None:
                summary["generation"] = stats.as_dict()
            summary["cache"] = self.session.cache_stats()
        except Exception:
            pass
        if result is not None:
            summary["alternatives"] = len(result.alternatives)
            summary["skyline_size"] = len(result.skyline_indices)
        return summary


class FleetWorker:
    """One queue-draining planner in the redesign fleet.

    Parameters
    ----------
    queue:
        The shared :class:`JobQueue` (each worker may open its own
        instance on the same path -- SQLite arbitrates).
    worker_id:
        Stable name for the lease/registry tables.  Reusing a name
        after a crash *is* the restart story: the queue bumps the
        worker's ``restarts`` counter and the worker keeps draining.
        Defaults to ``worker-<8 hex chars>``.
    cache:
        The profile-cache tier injected into every planner, shared
        across this worker's jobs (e.g. a
        :class:`~repro.fleet.sharded.ShardedProfileCache`).  ``None``
        plans cold.
    palette:
        Optional pattern palette forwarded to every planner.
    poll_interval / lease_timeout / heartbeat_interval:
        Longest idle wait between lease attempts (an enqueue through
        this worker's queue instance ends it early); lease validity
        requested from the queue (default: the queue's); heartbeat
        period (default: a third of the lease timeout, so two beats may
        be lost before the lease expires).
    registry:
        Where the worker's loop timings and job outcomes are recorded,
        and where a job submitted with ``"metrics_enabled": true``
        records its planner metrics (``None``: the process default
        registry).
    """

    def __init__(
        self,
        queue: JobQueue,
        worker_id: str | None = None,
        cache: CacheBackend | None = None,
        palette: PatternRegistry | None = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        lease_timeout: float | None = None,
        heartbeat_interval: float | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.queue = queue
        # Observability only: fleet.worker.* loop timings and job-outcome
        # counters mirror the jobs_done/failed/abandoned attributes.
        self.metrics_registry = registry
        self.worker_id = worker_id or f"worker-{uuid.uuid4().hex[:8]}"
        self.cache = cache
        self.palette = palette
        self.poll_interval = poll_interval
        self.lease_timeout = (
            queue.lease_timeout if lease_timeout is None else lease_timeout
        )
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive (seconds)")
        self.heartbeat_interval = (
            self.lease_timeout / 3.0 if heartbeat_interval is None else heartbeat_interval
        )
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_abandoned = 0
        #: The job being planned right now (``None`` while idle).
        self.current: RunningJob | None = None
        self._stop = threading.Event()
        self._killed = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FleetWorker":
        """Run the drain loop on a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError(f"worker {self.worker_id} is already running")
        self._stop.clear()
        self._killed.clear()
        self._thread = threading.Thread(
            target=self.run, name=f"fleet-{self.worker_id}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: finish (and ack) the current job, then exit."""
        self._stop.set()
        self.queue.wake()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
        self._thread = None

    def kill(self, timeout: float | None = 30.0) -> None:
        """Simulate a crash: abandon the current job *without acking*.

        The job's lease is left to expire, after which any worker
        (including this one, restarted) re-leases it.  This is the
        deterministic stand-in for ``kill -9`` that the failure-storm
        tests drive.
        """
        self._killed.set()
        self.stop(timeout)

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def run(self) -> None:
        """Drain the queue until stopped (inline mode; ``start()`` wraps it)."""
        self.queue.register_worker(self.worker_id, pid=os.getpid())
        logger.info("worker %s draining %s", self.worker_id, self.queue.path)
        while not self._stop.is_set():
            seen = self.queue.enqueued
            try:
                job = self.queue.lease(self.worker_id, self.lease_timeout)
            except Exception:
                logger.exception("worker %s: lease failed", self.worker_id)
                self._stop.wait(self.poll_interval)
                continue
            if job is None:
                self.queue.wait_for_enqueue(seen, self.poll_interval, self._stop)
                continue
            self._execute(job)

    # ------------------------------------------------------------------
    # One job
    # ------------------------------------------------------------------

    def _count_job(self, outcome: str) -> None:
        if self.metrics_registry is not None:
            self.metrics_registry.counter(f"fleet.worker.jobs_{outcome}").inc()

    def _execute(self, job: LeasedJob) -> None:
        with maybe_timer(self.metrics_registry, "fleet.worker.loop_seconds"):
            self._execute_timed(job)

    def _execute_timed(self, job: LeasedJob) -> None:
        running = RunningJob(job.job_id)
        lease_lost = threading.Event()
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(running, lease_lost, stop_heartbeat),
            name=f"fleet-{self.worker_id}-heartbeat",
            daemon=True,
        )
        heartbeat.start()
        try:
            result = self._plan(job, running, lease_lost)
            result_doc = result_to_dict(result)
        except _JobAbandoned:
            self.jobs_abandoned += 1
            self._count_job("abandoned")
            logger.warning(
                "worker %s abandoned %s (attempt %d); lease will expire",
                self.worker_id,
                job.job_id,
                job.attempts,
            )
            return
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            if self.queue.ack(
                job.job_id,
                self.worker_id,
                "failed",
                error=error,
                evaluated=running.evaluated,
                summary=running.summary(),
            ):
                self.jobs_failed += 1
                self._count_job("failed")
            logger.info("worker %s failed %s: %s", self.worker_id, job.job_id, error)
            return
        finally:
            stop_heartbeat.set()
            heartbeat.join()
        if self.queue.ack(
            job.job_id,
            self.worker_id,
            "done",
            result=result_doc,
            evaluated=running.evaluated,
            summary=running.summary(result),
        ):
            self.jobs_done += 1
            self._count_job("done")
        else:
            # The lease expired (and was re-claimed) before we finished:
            # we are the zombie.  The queue already rejected our result.
            self.jobs_abandoned += 1
            self._count_job("abandoned")
            logger.warning(
                "worker %s lost the lease on %s before ack; result discarded",
                self.worker_id,
                job.job_id,
            )

    def _plan(
        self,
        job: LeasedJob,
        running: RunningJob,
        lease_lost: threading.Event,
    ) -> PlanningResult:
        payload = job.payload
        flow = ETLGraph.from_dict(payload["flow"])
        configuration = configuration_from_request(
            payload.get("configuration"), registry=self.metrics_registry
        )
        running.planner = Planner(
            palette=self.palette,
            configuration=configuration,
            profile_cache=self.cache,
        )
        running.session = RedesignSession(flow, planner=running.planner)

        def on_evaluated(_alternative) -> None:
            running.evaluated += 1
            if self._killed.is_set() or lease_lost.is_set():
                raise _JobAbandoned(job.job_id)

        if self._killed.is_set():  # killed between lease and planning start
            raise _JobAbandoned(job.job_id)
        self.current = running
        try:
            return running.session.iterate(on_evaluated=on_evaluated).result
        finally:
            # Unpublished before the ack, so a job seen as terminal is
            # never still listed as running.
            self.current = None

    def _heartbeat_loop(
        self,
        running: RunningJob,
        lease_lost: threading.Event,
        stop: threading.Event,
    ) -> None:
        job_id = running.job_id
        while not stop.wait(self.heartbeat_interval):
            try:
                alive = self.queue.heartbeat(
                    job_id, self.worker_id, evaluated=running.evaluated,
                    lease_timeout=self.lease_timeout,
                )
            except Exception:
                logger.exception("worker %s: heartbeat for %s failed", self.worker_id, job_id)
                continue
            if not alive:
                # Re-leased by someone else (or deleted): abandon.
                lease_lost.set()
                return


def run_worker(
    queue_path: str,
    worker_id: str | None = None,
    cache_factory: Callable[[], CacheBackend | None] | None = None,
    **worker_kwargs: Any,
) -> FleetWorker:
    """Open the queue at ``queue_path`` and drain it until interrupted.

    The process entry point used by ``tools/worker.py``; blocks in
    :meth:`FleetWorker.run`.
    """
    queue = JobQueue(queue_path)
    cache = cache_factory() if cache_factory is not None else None
    worker = FleetWorker(queue, worker_id=worker_id, cache=cache, **worker_kwargs)
    try:
        worker.run()
    finally:
        if cache is not None and hasattr(cache, "close"):
            cache.close()
        queue.close()
    return worker
