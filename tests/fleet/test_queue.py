"""The durable job queue's lease protocol, unit-tested without planners.

The crash-safety story of the fleet is entirely in these transitions:
leases expire, expired jobs are re-leased exactly once per claimant,
zombie heartbeats/acks are rejected, and everything survives reopening
the SQLite file (the restart path).
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.fleet import JobQueue

pytestmark = pytest.mark.fleet


@pytest.fixture
def queue(tmp_path):
    with JobQueue(tmp_path / "jobs.sqlite", lease_timeout=0.2) as queue:
        yield queue


def test_enqueue_lease_ack_roundtrip(queue):
    job_id = queue.enqueue({"flow": {"name": "f"}})
    assert queue.status(job_id) == {
        "id": job_id,
        "status": "queued",
        "attempts": 0,
        "evaluated": 0,
    }
    lease = queue.lease("w1")
    assert lease.job_id == job_id
    assert lease.payload == {"flow": {"name": "f"}}
    assert lease.attempts == 1
    assert queue.status(job_id)["status"] == "leased"
    assert queue.ack(job_id, "w1", "done", result={"alternatives": []}, evaluated=9)
    status = queue.status(job_id)
    assert status["status"] == "done"
    assert status["evaluated"] == 9
    assert queue.result(job_id) == {"alternatives": []}


def test_jobs_are_leased_oldest_first(queue):
    first = queue.enqueue({"n": 1})
    second = queue.enqueue({"n": 2})
    assert queue.lease("w1").job_id == first
    assert queue.lease("w1").job_id == second
    assert queue.lease("w1") is None


def test_two_workers_never_lease_the_same_job(queue):
    for n in range(8):
        queue.enqueue({"n": n})
    claimed: list[str] = []
    lock = threading.Lock()

    def drain(worker_id: str) -> None:
        own = JobQueue(queue.path)  # separate connection, like a process
        try:
            while True:
                lease = own.lease(worker_id)
                if lease is None:
                    return
                with lock:
                    claimed.append(lease.job_id)
        finally:
            own.close()

    threads = [threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(claimed) == 8
    assert len(set(claimed)) == 8


def test_expired_lease_is_reclaimed_with_attempt_bump(queue):
    job_id = queue.enqueue({})
    assert queue.lease("dead", lease_timeout=0.05).attempts == 1
    assert queue.lease("w2") is None  # still validly held
    time.sleep(0.08)
    assert queue.status(job_id)["stalled"] is True
    release = queue.lease("w2")
    assert release.job_id == job_id
    assert release.attempts == 2
    assert queue.status(job_id)["worker"] == "w2"


def test_heartbeat_extends_the_lease(queue):
    job_id = queue.enqueue({})
    queue.lease("w1", lease_timeout=0.15)
    for _ in range(4):
        time.sleep(0.08)
        assert queue.heartbeat(job_id, "w1", lease_timeout=0.15)
        # A heartbeating worker's job is never up for grabs.
        assert queue.lease("thief") is None
    assert queue.ack(job_id, "w1", "done", result={})


def test_zombie_worker_cannot_ack_or_heartbeat(queue):
    job_id = queue.enqueue({})
    queue.lease("zombie", lease_timeout=0.03)
    time.sleep(0.05)
    queue.lease("successor")
    # The original worker wakes up late: everything it tries is refused.
    assert not queue.heartbeat(job_id, "zombie")
    assert not queue.ack(job_id, "zombie", "done", result={"from": "zombie"})
    assert queue.ack(job_id, "successor", "done", result={"from": "successor"})
    # Exactly one result row, the successor's.
    assert queue.result(job_id) == {"from": "successor"}
    assert queue.status(job_id)["worker"] == "successor"


def test_expired_but_unclaimed_lease_still_acks(queue):
    # Slow is not dead: if nobody re-leased the job, the original
    # worker's late result is still the first and only one -- accepted.
    job_id = queue.enqueue({})
    queue.lease("slow", lease_timeout=0.03)
    time.sleep(0.05)
    assert queue.ack(job_id, "slow", "done", result={"late": True})
    assert queue.result(job_id) == {"late": True}


def test_failed_ack_records_error(queue):
    job_id = queue.enqueue({})
    queue.lease("w1")
    assert queue.ack(job_id, "w1", "failed", error="ValueError: boom")
    status = queue.status(job_id)
    assert status["status"] == "failed"
    assert status["error"] == "ValueError: boom"
    assert queue.result(job_id) is None


def test_ack_rejects_non_terminal_status(queue):
    job_id = queue.enqueue({})
    queue.lease("w1")
    with pytest.raises(ValueError, match="terminal"):
        queue.ack(job_id, "w1", "leased")


def test_delete_only_terminal_jobs(queue):
    job_id = queue.enqueue({})
    assert not queue.delete(job_id)  # queued
    queue.lease("w1")
    assert not queue.delete(job_id)  # leased
    queue.ack(job_id, "w1", "done", result={})
    assert queue.delete(job_id)
    assert queue.status(job_id) is None
    assert not queue.delete(job_id)


def test_job_ids_never_reused_after_delete(queue):
    first = queue.enqueue({})
    queue.lease("w1")
    queue.ack(first, "w1", "done", result={})
    queue.delete(first)
    assert queue.enqueue({}) != first


def test_queue_state_survives_reopening(tmp_path):
    path = tmp_path / "restart.sqlite"
    with JobQueue(path) as queue:
        job_id = queue.enqueue({"persisted": True})
        queue.register_worker("w1", pid=111)
    # A restarted front-end/worker opens the same file and sees it all.
    with JobQueue(path) as reopened:
        assert reopened.status(job_id)["status"] == "queued"
        lease = reopened.lease("w1")
        assert lease.payload == {"persisted": True}
        [worker] = reopened.workers()
        assert worker["id"] == "w1"


def test_worker_registry_counts_restarts(queue):
    queue.register_worker("w1", pid=100)
    queue.register_worker("w2", pid=200)
    queue.register_worker("w1", pid=101)  # the restart
    workers = {entry["id"]: entry for entry in queue.workers()}
    assert workers["w1"]["restarts"] == 1
    assert workers["w1"]["pid"] == 101
    assert workers["w2"]["restarts"] == 0


def test_stats_counts_by_state(queue):
    done = queue.enqueue({})
    queue.enqueue({})
    expired = queue.enqueue({})
    queue.lease("w1")  # -> done below
    queue.ack(done, "w1", "done", result={})
    queue.lease("w1", lease_timeout=0.01)
    time.sleep(0.03)
    stats = queue.stats()
    assert stats == {
        "queued": 1,
        "leased": 1,
        "done": 1,
        "failed": 0,
        "expired": 1,
        "depth": 2,
    }
    assert len(queue) == 3
    assert {job["id"] for job in queue.jobs()} == {done, expired, queue.jobs()[1]["id"]}


def test_lease_timeout_validation(tmp_path):
    with pytest.raises(ValueError, match="lease_timeout"):
        JobQueue(tmp_path / "bad.sqlite", lease_timeout=0)


# ---------------------------------------------------------------------------
# Waking idle workers
# ---------------------------------------------------------------------------


def _idle_worker(queue, worker_id, stop, leases, idle, leased):
    """The lease/wait half of ``FleetWorker.run``; ends once it leases a job.

    ``idle`` is released with the enqueue condition held, so once the
    caller has acquired it the worker is inside the wait: an enqueue
    after that is guaranteed to find it waiting.  Every lease is
    recorded as ``(worker_id, job_id or None)``.
    """
    while not stop.is_set():
        seen = queue.enqueued
        job = queue.lease(worker_id)
        leases.append((worker_id, None if job is None else job.job_id))
        if job is not None:
            leased.release()
            return
        with queue._enqueued:  # reentrant: the wait below releases it fully
            idle.release()
            queue.wait_for_enqueue(seen, 30.0, stop)


def _start_idle_workers(queue, stops):
    """One idle worker thread per stop event, each waiting before the next starts."""
    leases: list[tuple[str, str | None]] = []
    idle = threading.Semaphore(0)
    leased = threading.Semaphore(0)
    threads = []
    for index, stop in enumerate(stops):
        thread = threading.Thread(
            target=_idle_worker,
            args=(queue, f"w{index}", stop, leases, idle, leased),
        )
        thread.start()
        assert idle.acquire(timeout=10)
        threads.append(thread)
    assert leases == [(f"w{index}", None) for index in range(len(stops))]
    leases.clear()
    return threads, leases, leased


def _stop_workers(queue, threads, stops):
    for stop in stops:
        stop.set()
    queue.wake()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()


def test_one_enqueue_wakes_one_idle_worker(queue):
    stops = [threading.Event(), threading.Event()]
    threads, leases, leased = _start_idle_workers(queue, stops)
    try:
        job_id = queue.enqueue({"n": 1})
        assert leased.acquire(timeout=10)
    finally:
        _stop_workers(queue, threads, stops)
    # the other worker slept until it was stopped: no empty lease
    assert [job for _, job in leases] == [job_id]


def test_back_to_back_enqueues_wake_both_idle_workers(queue):
    stops = [threading.Event(), threading.Event()]
    threads, leases, leased = _start_idle_workers(queue, stops)
    try:
        jobs = {queue.enqueue({"n": 1}), queue.enqueue({"n": 2})}
        assert leased.acquire(timeout=10) and leased.acquire(timeout=10)
    finally:
        _stop_workers(queue, threads, stops)
    assert sorted(worker for worker, _ in leases) == ["w0", "w1"]
    assert {job for _, job in leases} == jobs


def test_a_stopping_worker_passes_its_wake_up_on(queue):
    stops = [threading.Event(), threading.Event()]
    threads, leases, leased = _start_idle_workers(queue, stops)
    try:
        # w0 waits longest, so it takes the enqueue's wake-up, but it is
        # stopping (no wake() yet): w1 must still lease the job
        stops[0].set()
        job_id = queue.enqueue({"n": 1})
        assert leased.acquire(timeout=10)
    finally:
        _stop_workers(queue, threads, stops)
    assert leases == [("w1", job_id)]


def test_a_burst_of_enqueues_loses_no_wake_up(queue):
    """More draining workers than cores, a burst of jobs, a short switch
    interval: every job is leased exactly once while the workers' waits
    would outlast the test, so a lost wake-up shows as a timeout."""
    stop = threading.Event()
    leased: list[str] = []
    done = threading.Semaphore(0)

    def drain(worker_id: str) -> None:
        while not stop.is_set():
            seen = queue.enqueued
            job = queue.lease(worker_id)
            if job is None:
                queue.wait_for_enqueue(seen, 30.0, stop)
                continue
            leased.append(job.job_id)
            done.release()

    jobs = 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=drain, args=(f"w{i}",)) for i in range(6)]
    try:
        for thread in threads:
            thread.start()
        enqueued = [queue.enqueue({"n": n}) for n in range(jobs)]
        for _ in range(jobs):
            assert done.acquire(timeout=10)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        queue.wake()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
    assert sorted(leased) == sorted(enqueued)
