"""The queue-backed RedesignServer front-end: API parity with in-process.

A ``RedesignClient`` must not be able to tell a fleet front-end from the
classic in-process server: same validation at submit time, same
status/result/delete semantics, same error codes.
"""

from __future__ import annotations

import pytest

from repro.service.client import RedesignServiceError
from repro.service.common import ServiceError
from repro.service.redesign_server import _RESERVED_FIELDS, configuration_from_request

pytestmark = pytest.mark.fleet


def test_submit_validates_before_enqueueing(fleet):
    client = fleet.client()
    with pytest.raises(RedesignServiceError) as excinfo:
        client._request("/plans", method="POST", payload={"flow": {"bogus": True}})
    assert excinfo.value.status == 400
    # Nothing reached the queue -- a malformed flow fails the submitter,
    # not a worker minutes later.
    assert len(fleet.queue) == 0


def test_reserved_fleet_fields_rejected_at_submit(fleet, linear_flow):
    client = fleet.client()
    with pytest.raises(RedesignServiceError) as excinfo:
        client.submit(linear_flow, configuration={"cache_urls": "x"})
    assert excinfo.value.status == 400
    assert "owned by the service" in str(excinfo.value)
    # The removed ring and single-server knobs are no fields at all.
    for field in ("fleet_ring_replicas", "cache_url"):
        with pytest.raises(RedesignServiceError) as excinfo:
            client.submit(linear_flow, configuration={field: "x"})
        assert excinfo.value.status == 400
        assert "unknown configuration field" in str(excinfo.value)
    assert len(fleet.queue) == 0


def test_fleet_knobs_are_reserved_fields():
    # The regression guard for the service-owned knob list itself.
    assert "cache_urls" in _RESERVED_FIELDS
    assert "fleet_ring_replicas" not in _RESERVED_FIELDS
    with pytest.raises(ServiceError):
        configuration_from_request({"cache_urls": ("http://a:1",)})


def test_status_and_result_lifecycle(fleet, linear_flow):
    client = fleet.client()
    job_id = client.submit(
        linear_flow,
        configuration={"pattern_budget": 1, "simulation_runs": 1,
                       "max_points_per_pattern": 2},
    )
    # Unknown ids are 404, pending results are 409 -- as in-process.
    with pytest.raises(RedesignServiceError) as excinfo:
        client.status("plan-999")
    assert excinfo.value.status == 404
    try:
        client.result_raw(job_id)
    except RedesignServiceError as exc:
        assert exc.status == 409
    status = client.wait(job_id, timeout=60)
    assert status["status"] == "done"
    assert status["attempts"] == 1
    result = client.result(job_id)
    assert len(result.alternatives) > 0

    plans = client._request("/plans")["plans"]
    assert [plan["id"] for plan in plans] == [job_id]
    assert plans[0]["status"] == "done"

    assert client.delete(job_id) == {"id": job_id, "deleted": True}
    with pytest.raises(RedesignServiceError) as excinfo:
        client.status(job_id)
    assert excinfo.value.status == 404


def test_delete_refuses_live_jobs(fleet, linear_flow):
    client = fleet.client()
    # Park the queue full with no worker progress by pausing all workers.
    for worker_id in list(fleet.workers):
        fleet.workers[worker_id].stop()
    job_id = client.submit(
        linear_flow, configuration={"pattern_budget": 1, "simulation_runs": 1}
    )
    with pytest.raises(RedesignServiceError) as excinfo:
        client.delete(job_id)
    assert excinfo.value.status == 409
    assert fleet.queue.status(job_id)["status"] == "queued"


def test_health_reports_fleet_shape(fleet):
    health = fleet.client().health()
    assert health["mode"] == "fleet"
    assert health["queue"]["depth"] == 0
    assert {worker["id"] for worker in health["fleet_workers"]} == set(fleet.workers)


def test_running_status_maps_leased_state(fleet, linear_flow):
    client = fleet.client()
    job_id = client.submit(
        linear_flow, configuration={"pattern_budget": 1, "simulation_runs": 1}
    )
    saw_running = False
    for _ in range(2_000):
        status = client.status(job_id)
        assert status["status"] in ("queued", "running", "done")
        if status["status"] == "running":
            saw_running = True
            assert status["worker"] in fleet.workers
        if status["status"] == "done":
            break
    assert saw_running or client.status(job_id)["status"] == "done"
