"""What the redesign server's job path needs from the queue.

Every ``service_jobs`` round trip goes enqueue -> lease -> ack -> status
polls -> result fetch, so the queue must wake an idle worker on the same
instance at once, keep status reads off the large columns, bound its
rows on enqueue and hand back a result as the text the ack stored.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.fleet import FleetWorker, JobQueue

pytestmark = pytest.mark.fleet

_FAST_CONFIG = {"pattern_budget": 1, "max_points_per_pattern": 2, "simulation_runs": 1}


def _finish(queue: JobQueue, job_id: str, **ack) -> None:
    lease = queue.lease("w1")
    assert lease is not None and lease.job_id == job_id
    assert queue.ack(job_id, "w1", "done", **ack)


def test_idle_worker_on_the_same_instance_wakes_on_enqueue(linear_flow):
    queue = JobQueue(":memory:")
    idle, acked = threading.Event(), threading.Event()
    lease, ack = queue.lease, queue.ack

    def lease_and_report(*args, **kwargs):
        job = lease(*args, **kwargs)
        if job is None:
            idle.set()
        return job

    def ack_and_report(*args, **kwargs):
        try:
            return ack(*args, **kwargs)
        finally:
            acked.set()

    queue.lease, queue.ack = lease_and_report, ack_and_report
    worker = FleetWorker(queue, poll_interval=30).start()
    try:
        assert idle.wait(10.0), "the worker never found the queue empty"
        job_id = queue.enqueue({"flow": linear_flow.to_dict(), "configuration": _FAST_CONFIG})
        # far less than the 30 s poll interval: the enqueue woke the worker
        assert acked.wait(2.0)
        assert queue.status(job_id)["status"] == "done"
    finally:
        started = time.perf_counter()
        worker.stop()
        stopped_after = time.perf_counter() - started
        queue.close()
    assert not worker.running
    assert stopped_after < 2.0, "stop() waited out the idle poll interval"


def test_status_reads_never_touch_payload_or_result(tmp_path):
    with JobQueue(tmp_path / "jobs.sqlite") as queue:
        job_id = queue.enqueue({"flow": {"name": "f"}})
        _finish(
            queue,
            job_id,
            result={"alternatives": [1, 2]},
            summary={"alternatives": 2, "skyline_size": 1},
        )
        statements: list[str] = []
        queue._connection.set_trace_callback(statements.append)
        try:
            status = queue.status(job_id)
            listing = queue.jobs()
        finally:
            queue._connection.set_trace_callback(None)
        assert len(statements) == 2
        for statement in statements:
            assert "*" not in statement
            assert "payload" not in statement and "result" not in statement
        # the ack's summary is part of the status document
        assert status["alternatives"] == 2 and status["skyline_size"] == 1
        assert listing == [status]


def test_result_json_is_the_text_the_ack_stored(tmp_path):
    with JobQueue(tmp_path / "jobs.sqlite") as queue:
        document = {"alternatives": [{"label": "a", "value": 0.1}], "skyline": [0]}
        done = queue.enqueue({"n": 1})
        _finish(queue, done, result=document)
        text = queue.result_json(done)
        assert json.loads(text) == document
        assert text == json.dumps(document, separators=(",", ":"))
        assert queue.result(done) == document
        failed = queue.enqueue({"n": 2})
        queue.lease("w1")
        assert queue.ack(failed, "w1", "failed", error="boom")
        assert queue.result_json(failed) is None
        assert queue.result_json("plan-999") is None


def test_enqueue_evicts_the_oldest_terminal_jobs_beyond_the_cap():
    with JobQueue(":memory:") as queue:
        first, second, live = (queue.enqueue({"n": n}) for n in range(3))
        _finish(queue, first)
        _finish(queue, second)
        newest = queue.enqueue({"n": 3}, max_retained_jobs=2)
        assert [job["id"] for job in queue.jobs()] == [live, newest]
        # queued jobs are never evicted, even beyond the cap
        extra = queue.enqueue({"n": 4}, max_retained_jobs=1)
        assert [job["id"] for job in queue.jobs()] == [live, newest, extra]
        assert len(queue) == 3
