"""A durable, pull-based job queue for the redesign worker fleet.

:class:`JobQueue` is the persistence layer between the submit/status
front-end (:class:`~repro.service.RedesignServer` constructed with
``queue=``) and the pull-based worker fleet (:mod:`repro.fleet.worker`,
``tools/worker.py``).  It is a single SQLite file -- stdlib only, safe
for concurrent access from many processes (WAL journal, immediate
transactions, a busy timeout) -- so the front-end, N workers and any
monitoring tool coordinate through the filesystem alone.

The lease protocol (see ``docs/fleet.md`` for the full state diagram):

* ``enqueue`` inserts a job as ``queued`` and returns its id
  (``plan-<n>``, monotonically increasing across restarts -- ids come
  from the table's AUTOINCREMENT rowid, so a restarted front-end can
  never reissue one).
* ``lease`` atomically claims the oldest *available* job for a worker:
  available means ``queued``, or ``leased`` with an **expired lease
  deadline** -- a job whose worker died mid-plan simply becomes
  leasable again once its deadline passes, which is the whole crash
  story; nothing marks jobs orphaned, the deadline does.  Each lease
  increments ``attempts``.
* ``heartbeat`` extends the deadline of a held lease (and records live
  progress -- the ``evaluated`` counter the status endpoint serves).
  It fails, returning ``False``, once the lease was lost to another
  worker: the worker must abandon the job (its successor owns it now).
* ``ack`` records the terminal result (``done`` with the result
  document, or ``failed`` with an error, plus the run's summary
  fields) -- but only for the worker that *currently* holds the lease.
  A zombie worker acking a job that was re-leased after its lease
  expired is rejected, so a re-run can never produce duplicate (or
  conflicting) result rows.

Workers additionally ``register`` themselves (name, pid, start time)
and refresh ``last_seen`` with every lease/heartbeat; a worker process
restarted after a kill re-registers under the same name and simply
continues draining -- there is no session state to rebuild.

``JobQueue(":memory:")`` is a private queue for one process: it is
what a :class:`~repro.service.RedesignServer` without ``queue=`` drains
with in-process worker threads.  Workers idling on the *same instance*
are woken by ``enqueue`` instead of sleeping out their poll interval.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.fleet.states import TERMINAL_STATES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger("repro.fleet.queue")

#: Default seconds a lease stays valid without a heartbeat.  Workers
#: heartbeat at a fraction of this, so only a genuinely dead worker
#: lets its lease expire.
DEFAULT_LEASE_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    rowid       INTEGER PRIMARY KEY AUTOINCREMENT,
    id          TEXT NOT NULL UNIQUE,
    payload     TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'queued',
    worker      TEXT,
    lease_deadline REAL,
    leased_at   REAL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    evaluated   INTEGER NOT NULL DEFAULT 0,
    enqueued_at REAL NOT NULL,
    finished_at REAL,
    result      TEXT,
    error       TEXT,
    summary     TEXT
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status, rowid);
CREATE TABLE IF NOT EXISTS workers (
    id          TEXT PRIMARY KEY,
    pid         INTEGER,
    registered_at REAL NOT NULL,
    restarts    INTEGER NOT NULL DEFAULT 0,
    last_seen   REAL NOT NULL
);
"""

#: What a status document is built from: never ``payload`` or ``result``,
#: which carry whole flows and ranked alternatives.
_STATUS_COLUMNS = "id, status, attempts, evaluated, worker, error, lease_deadline, summary"


@dataclass(frozen=True)
class LeasedJob:
    """What a worker receives from :meth:`JobQueue.lease`."""

    job_id: str
    payload: dict[str, Any]
    attempts: int
    lease_deadline: float


class JobQueue:
    """One SQLite-backed job queue shared by front-end and workers.

    Parameters
    ----------
    path:
        The database file.  Every process of the fleet opens its own
        :class:`JobQueue` on the same path; SQLite (WAL mode) arbitrates.
    lease_timeout:
        Default lease validity in seconds; :meth:`lease` and
        :meth:`heartbeat` accept per-call overrides.

    The instance is thread-safe (one connection guarded by a lock) and
    cheap to open -- ``tools/worker.py`` opens one per process.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive (seconds)")
        self.path = os.fspath(path)
        self.lease_timeout = lease_timeout
        # Observability only: queue.* latency histograms, depth gauges
        # and lease-expiry counters land here when set.
        self.metrics_registry = registry
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            self.path,
            timeout=10.0,
            isolation_level=None,  # explicit transactions only
            check_same_thread=False,
        )
        self._connection.row_factory = sqlite3.Row
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.execute("PRAGMA busy_timeout=10000")
        # executescript() manages its own transaction (it commits any
        # pending one first), so the schema runs outside _transaction().
        with self._lock:
            self._connection.executescript(_SCHEMA)
            # Migrate queues created before the lease-latency and
            # summary columns.
            for column in ("leased_at REAL", "summary TEXT"):
                try:
                    self._connection.execute(f"ALTER TABLE jobs ADD COLUMN {column}")
                except sqlite3.OperationalError:
                    pass  # current schema: the column already exists
        # Enqueues through this instance, and the condition idle workers
        # on it wait for (see wait_for_enqueue); acks through it, and the
        # condition status long-polls wait for (see wait_for_ack).
        self.enqueued = 0
        self._enqueued = threading.Condition()
        self.acked = 0
        self._acked = threading.Condition()

    # ------------------------------------------------------------------

    def _transaction(self):
        """``with`` helper: lock + BEGIN IMMEDIATE + commit/rollback.

        IMMEDIATE takes the write lock up front, so a lease's
        read-then-claim can never race another process into claiming
        the same job.
        """
        queue = self

        class _Txn:
            def __enter__(self) -> sqlite3.Connection:
                queue._lock.acquire()
                try:
                    queue._connection.execute("BEGIN IMMEDIATE")
                except BaseException:
                    queue._lock.release()
                    raise
                return queue._connection

            def __exit__(self, exc_type, *exc_info: object) -> None:
                try:
                    if exc_type is None:
                        queue._connection.execute("COMMIT")
                    else:
                        queue._connection.execute("ROLLBACK")
                finally:
                    queue._lock.release()

        return _Txn()

    def close(self) -> None:
        """Close the connection (the file keeps every job, of course)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Producer side (the submit/status front-end)
    # ------------------------------------------------------------------

    def enqueue(
        self, payload: dict[str, Any], max_retained_jobs: int | None = None
    ) -> str:
        """Insert one job as ``queued``; returns its durable id.

        With ``max_retained_jobs``, the oldest terminal jobs beyond that
        many rows are deleted in the same transaction; queued and leased
        jobs are never evicted.
        """
        document = json.dumps(payload)
        with self._transaction() as connection:
            cursor = connection.execute(
                "INSERT INTO jobs (id, payload, enqueued_at) VALUES ('', ?, ?)",
                (document, time.time()),
            )
            job_id = f"plan-{cursor.lastrowid}"
            connection.execute(
                "UPDATE jobs SET id = ? WHERE rowid = ?", (job_id, cursor.lastrowid)
            )
            if max_retained_jobs is not None:
                (rows,) = connection.execute("SELECT COUNT(*) FROM jobs").fetchone()
                if rows > max_retained_jobs:
                    connection.execute(
                        "DELETE FROM jobs WHERE rowid IN (SELECT rowid FROM jobs "
                        "WHERE status IN ('done', 'failed') ORDER BY rowid LIMIT ?)",
                        (rows - max_retained_jobs,),
                    )
        if self.metrics_registry is not None:
            self.metrics_registry.counter("queue.enqueued").inc()
        with self._enqueued:
            self.enqueued += 1
            # One job, one idle worker: the rest would only lease nothing.
            self._enqueued.notify()
        logger.debug("enqueued %s", job_id)
        return job_id

    def wait_for_enqueue(
        self, seen: int, timeout: float, stop: threading.Event
    ) -> None:
        """Block until this instance enqueues past ``seen``, ``stop`` is set
        (and :meth:`wake` called) or ``timeout`` passes.

        Idle workers read :attr:`enqueued` before a lease that found
        nothing and wait here, so a job enqueued in between is never
        slept through.  Each enqueue wakes one waiting worker.
        Enqueues by other processes are not seen; those workers find
        them at the next poll.
        """
        with self._enqueued:
            self._enqueued.wait_for(
                lambda: self.enqueued != seen or stop.is_set(), timeout
            )
            if stop.is_set() and self.enqueued != seen:
                # A stopping worker will not lease: hand the enqueue's
                # wake-up on to another idle worker.
                self._enqueued.notify()

    def wait_for_ack(self, seen: int, timeout: float, stop: threading.Event) -> None:
        """Block until this instance acks past ``seen``, ``stop`` is set
        (and :meth:`wake` called) or ``timeout`` passes.

        A status long-poll reads :attr:`acked` before it reads the job's
        row, so an ack in between is never slept through.  Acks by other
        processes are not seen; a long-poll on a shared file re-reads
        the row instead.
        """
        with self._acked:
            self._acked.wait_for(lambda: self.acked != seen or stop.is_set(), timeout)

    def wake(self) -> None:
        """Wake every :meth:`wait_for_enqueue` and :meth:`wait_for_ack` to re-check ``stop``."""
        for condition in (self._enqueued, self._acked):
            with condition:
                condition.notify_all()

    def status(self, job_id: str) -> dict[str, Any] | None:
        """One job's row as a JSON-able status document (``None`` if unknown).

        A ``leased`` job whose deadline already passed reports
        ``"stalled": True`` -- it will be re-leased by the next idle
        worker; callers see the truth instead of a forever-"running"
        job.
        """
        with self._lock:
            row = self._connection.execute(
                f"SELECT {_STATUS_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return None if row is None else self._row_payload(row)

    def jobs(self) -> list[dict[str, Any]]:
        """Every job's status document, in submission order."""
        with self._lock:
            rows = self._connection.execute(
                f"SELECT {_STATUS_COLUMNS} FROM jobs ORDER BY rowid"
            ).fetchall()
        return [self._row_payload(row) for row in rows]

    def result_json(self, job_id: str) -> str | None:
        """The stored result of a ``done`` job as its JSON text (else ``None``).

        The text is what :meth:`ack` encoded, so a server can send it
        without parsing it again.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT result FROM jobs WHERE id = ? AND status = 'done'", (job_id,)
            ).fetchone()
        return None if row is None else row["result"]

    def result(self, job_id: str) -> dict[str, Any] | None:
        """The stored result document of a ``done`` job (else ``None``)."""
        document = self.result_json(job_id)
        return None if document is None else json.loads(document)

    def delete(self, job_id: str) -> bool:
        """Forget a *terminal* job; ``False`` when absent or still live."""
        with self._transaction() as connection:
            cursor = connection.execute(
                "DELETE FROM jobs WHERE id = ? AND status IN ('done', 'failed')",
                (job_id,),
            )
            return cursor.rowcount > 0

    @staticmethod
    def _row_payload(row: sqlite3.Row) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": row["id"],
            "status": row["status"],
            "attempts": row["attempts"],
            "evaluated": row["evaluated"],
        }
        if row["worker"] is not None:
            payload["worker"] = row["worker"]
        if row["error"] is not None:
            payload["error"] = row["error"]
        if row["status"] == "leased" and (row["lease_deadline"] or 0) < time.time():
            payload["stalled"] = True
        if row["summary"] is not None:
            payload.update(json.loads(row["summary"]))
        return payload

    # ------------------------------------------------------------------
    # Consumer side (the worker fleet)
    # ------------------------------------------------------------------

    def lease(
        self, worker_id: str, lease_timeout: float | None = None
    ) -> LeasedJob | None:
        """Claim the oldest available job for ``worker_id`` (or ``None``).

        Available = ``queued``, or ``leased`` past its deadline (the
        crashed-worker path: the dead worker's lease simply expires and
        the job is claimed again, ``attempts`` + 1).  The claim happens
        inside one immediate transaction, so two workers can never
        lease the same job.
        """
        timeout = self.lease_timeout if lease_timeout is None else lease_timeout
        now = time.time()
        with self._transaction() as connection:
            row = connection.execute(
                "SELECT rowid, id, payload, attempts, status, enqueued_at FROM jobs "
                "WHERE status = 'queued' "
                "   OR (status = 'leased' AND lease_deadline < ?) "
                "ORDER BY rowid LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                self._touch_worker(connection, worker_id, now)
                return None
            deadline = now + timeout
            connection.execute(
                "UPDATE jobs SET status = 'leased', worker = ?, leased_at = ?, "
                "lease_deadline = ?, attempts = attempts + 1 WHERE rowid = ?",
                (worker_id, now, deadline, row["rowid"]),
            )
            self._touch_worker(connection, worker_id, now)
        registry = self.metrics_registry
        if registry is not None:
            registry.histogram("queue.enqueue_to_lease_seconds").observe(
                max(0.0, now - row["enqueued_at"])
            )
        if row["status"] == "leased":
            # An expired lease reclaimed: the crashed-worker recovery path.
            if registry is not None:
                registry.counter("queue.lease_expirations").inc()
            logger.warning(
                "job %s lease expired; re-leased to %s (attempt %d)",
                row["id"], worker_id, row["attempts"] + 1,
            )
        else:
            logger.debug("job %s leased to %s", row["id"], worker_id)
        return LeasedJob(
            job_id=row["id"],
            payload=json.loads(row["payload"]),
            attempts=row["attempts"] + 1,
            lease_deadline=deadline,
        )

    def heartbeat(
        self,
        job_id: str,
        worker_id: str,
        evaluated: int | None = None,
        lease_timeout: float | None = None,
    ) -> bool:
        """Extend a held lease (and record progress); ``False`` = lease lost.

        A ``False`` return is the signal to *stop working on the job*:
        either the lease expired and another worker claimed it, or the
        job was deleted.  Continuing anyway is harmless -- the final
        :meth:`ack` will be rejected for the same reason -- but wasted.
        """
        timeout = self.lease_timeout if lease_timeout is None else lease_timeout
        now = time.time()
        with self._transaction() as connection:
            assignments = ["lease_deadline = ?"]
            arguments: list[Any] = [now + timeout]
            if evaluated is not None:
                assignments.append("evaluated = ?")
                arguments.append(evaluated)
            arguments += [job_id, worker_id]
            cursor = connection.execute(
                f"UPDATE jobs SET {', '.join(assignments)} "
                "WHERE id = ? AND status = 'leased' AND worker = ?",
                arguments,
            )
            self._touch_worker(connection, worker_id, now)
            return cursor.rowcount > 0

    def ack(
        self,
        job_id: str,
        worker_id: str,
        status: str,
        result: dict[str, Any] | None = None,
        error: str | None = None,
        evaluated: int | None = None,
        summary: dict[str, Any] | None = None,
    ) -> bool:
        """Record a terminal outcome; ``False`` = this worker lost the lease.

        Only the worker currently recorded on the lease may ack -- the
        guard that makes a crashed-and-re-leased job's *original*
        worker (a zombie that woke up after its lease expired and was
        reassigned) unable to write a second, conflicting result row.
        An expired-but-not-yet-re-leased lease still acks fine: the
        result beat the competition, nothing re-runs.

        ``summary`` (JSON-able) is merged into the job's status
        document from then on.  The ack's metrics are recorded before
        the queue lock is released, so a status read on this instance
        that sees the terminal state also sees them counted.
        """
        if status not in TERMINAL_STATES:
            raise ValueError(
                f"ack status must be terminal {TERMINAL_STATES}, got {status!r}"
            )
        # Encoded before the lock: a large result takes tens of
        # milliseconds, and every status read waits on the lock.  Compact
        # separators: the text is served verbatim, and on a 1.7 MB result
        # they save 10% of its bytes, of the encoding and of the gzip.
        arguments: list[Any] = [
            status,
            json.dumps(result, separators=(",", ":")) if result is not None else None,
            error,
            json.dumps(summary) if summary is not None else None,
        ]
        now = time.time()
        with self._transaction() as connection:
            timings = connection.execute(
                "SELECT leased_at, enqueued_at FROM jobs "
                "WHERE id = ? AND status = 'leased' AND worker = ?",
                (job_id, worker_id),
            ).fetchone()
            assignments = [
                "status = ?",
                "result = ?",
                "error = ?",
                "summary = ?",
                "finished_at = ?",
                "lease_deadline = NULL",
            ]
            arguments.append(now)
            if evaluated is not None:
                assignments.append("evaluated = ?")
                arguments.append(evaluated)
            arguments += [job_id, worker_id]
            cursor = connection.execute(
                f"UPDATE jobs SET {', '.join(assignments)} "
                "WHERE id = ? AND status = 'leased' AND worker = ?",
                arguments,
            )
            self._touch_worker(connection, worker_id, now)
            acked = cursor.rowcount > 0
            registry = self.metrics_registry
            if acked and registry is not None:
                registry.counter(f"queue.acked_{status}").inc()
                if timings["leased_at"] is not None:
                    registry.histogram("queue.lease_to_ack_seconds").observe(
                        max(0.0, now - timings["leased_at"])
                    )
                registry.histogram("queue.enqueue_to_ack_seconds").observe(
                    max(0.0, now - timings["enqueued_at"])
                )
        if acked:
            with self._acked:
                self.acked += 1
                self._acked.notify_all()
            if status == "failed":
                logger.warning("job %s failed on %s: %s", job_id, worker_id, error)
            else:
                logger.debug("job %s done on %s", job_id, worker_id)
        return acked

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------

    def register_worker(self, worker_id: str, pid: int | None = None) -> None:
        """Announce a worker (idempotent; a restart bumps ``restarts``)."""
        now = time.time()
        with self._transaction() as connection:
            cursor = connection.execute(
                "UPDATE workers SET pid = ?, restarts = restarts + 1, last_seen = ? "
                "WHERE id = ?",
                (pid, now, worker_id),
            )
            if cursor.rowcount == 0:
                connection.execute(
                    "INSERT INTO workers (id, pid, registered_at, last_seen) "
                    "VALUES (?, ?, ?, ?)",
                    (worker_id, pid, now, now),
                )

    @staticmethod
    def _touch_worker(connection: sqlite3.Connection, worker_id: str, now: float) -> None:
        connection.execute(
            "UPDATE workers SET last_seen = ? WHERE id = ?", (now, worker_id)
        )

    def workers(self, active_within: float | None = None) -> list[dict[str, Any]]:
        """Registered workers (optionally only those seen recently)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM workers ORDER BY id"
            ).fetchall()
        cutoff = None if active_within is None else time.time() - active_within
        return [
            {
                "id": row["id"],
                "pid": row["pid"],
                "restarts": row["restarts"],
                "last_seen": row["last_seen"],
            }
            for row in rows
            if cutoff is None or row["last_seen"] >= cutoff
        ]

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Queue depth by state, plus how many leases are currently expired."""
        now = time.time()
        with self._lock:
            rows = self._connection.execute(
                "SELECT status, COUNT(*) AS n, "
                "SUM(CASE WHEN status = 'leased' AND lease_deadline < ? "
                "    THEN 1 ELSE 0 END) AS expired "
                "FROM jobs GROUP BY status",
                (now,),
            ).fetchall()
        counts = {"queued": 0, "leased": 0, "done": 0, "failed": 0, "expired": 0}
        for row in rows:
            counts[row["status"]] = row["n"]
            counts["expired"] += row["expired"] or 0
        counts["depth"] = counts["queued"] + counts["leased"]
        registry = self.metrics_registry
        if registry is not None:
            registry.gauge("queue.depth").set(counts["depth"])
            registry.gauge("queue.expired_leases").set(counts["expired"])
        return counts

    def job_latency(self) -> dict[str, float]:
        """End-to-end (enqueue -> ack) latency percentiles over terminal jobs.

        Exact quantiles over the stored ``finished_at - enqueued_at``
        spans -- the durable record works across processes, so a
        front-end can report latency for acks that happened in worker
        processes it never saw.  ``{"count": 0}`` with no terminal jobs.
        """
        with self._lock:
            rows = self._connection.execute(
                "SELECT finished_at - enqueued_at AS latency FROM jobs "
                "WHERE status IN ('done', 'failed') AND finished_at IS NOT NULL "
                "ORDER BY latency",
            ).fetchall()
        values = [row["latency"] for row in rows if row["latency"] is not None]
        if not values:
            return {"count": 0}

        def rank(quantile: float) -> float:
            return values[min(len(values) - 1, int(quantile * len(values)))]

        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": rank(0.50),
            "p95": rank(0.95),
            "p99": rank(0.99),
        }

    def __len__(self) -> int:
        with self._lock:
            row = self._connection.execute("SELECT COUNT(*) AS n FROM jobs").fetchone()
        return row["n"]
