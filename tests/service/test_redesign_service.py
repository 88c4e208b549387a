"""The redesign service: job lifecycle, wire results, concurrency.

The acceptance bar: results fetched over the wire are equivalent to an
in-process plan, >= 4 concurrent submissions all complete correctly on
a bounded pool with one shared cache, bad requests get clean JSON
errors, and progress is observable while a job runs.

The lifecycle and retention contract is checked against both
deployments: ``local`` (the server's private queue drained by its own
worker threads) and ``fleet`` (a queue file the caller owns, drained by
a worker on its own queue handle, as a separate process would).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.cache import ProfileCache
from repro.core import Planner
from repro.fleet import FleetWorker, JobQueue
from repro.service import (
    RedesignClient,
    RedesignServer,
    RedesignServiceError,
    configuration_from_request,
    result_from_dict,
    result_to_dict,
)
from repro.service.common import ServiceError


#: The knobs of the shared fast test configuration, as a wire document.
_WIRE_CONFIG = dict(
    pattern_budget=1,
    max_points_per_pattern=2,
    simulation_runs=1,
    max_alternatives=200,
    seed=7,
)


#: Both deployments of the one job lifecycle.
DEPLOYMENTS = pytest.mark.parametrize("deployment", ["local", "fleet"], indirect=True)


@pytest.fixture()
def deployment(request):
    return getattr(request, "param", "local")


@pytest.fixture()
def make_server(deployment, tmp_path):
    """``make_server(cache=..., workers=..., ...)`` -> a started server.

    ``fleet`` hands the server a queue file and drains it with as many
    external workers, each sharing the cache and polling its own handle.
    """
    servers: list = []
    external: list = []
    queues: list = []

    def make(cache=None, workers=2, **kwargs):
        cache = cache if cache is not None else ProfileCache()
        queue = None
        if deployment == "fleet":
            path = tmp_path / f"jobs-{len(queues)}.sqlite"
            queue, worker_queue = JobQueue(path), JobQueue(path)
            queues.extend([queue, worker_queue])
        server = RedesignServer(cache=cache, workers=workers, queue=queue, **kwargs)
        servers.append(server)
        if queue is not None:
            external.extend(
                FleetWorker(
                    worker_queue, worker_id=f"external-{index}", cache=cache,
                    poll_interval=0.02,
                ).start()
                for index in range(workers)
            )
        return server.start()

    yield make
    for component in external + servers:
        component.stop()
    for queue in queues:
        queue.close()


@pytest.fixture()
def server(make_server):
    return make_server()


@pytest.fixture()
def client(server):
    return RedesignClient(server.url, timeout=10.0)


class TestResultCodec:
    def test_wire_result_round_trips_the_planning_result(self, linear_flow, make_config):
        reference = Planner(configuration=make_config()).plan(linear_flow)
        decoded = result_from_dict(json.loads(json.dumps(result_to_dict(reference))))
        assert decoded.fingerprint() == reference.fingerprint()
        assert [a.label for a in decoded.alternatives] == [
            a.label for a in reference.alternatives
        ]
        assert decoded.characteristics == reference.characteristics
        assert decoded.discarded_by_constraints == reference.discarded_by_constraints


@DEPLOYMENTS
class TestJobLifecycle:
    def test_submit_wait_result_matches_in_process_plan(self, client, linear_flow, make_config):
        reference = Planner(configuration=make_config()).plan(linear_flow)
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        status = client.wait(job_id, timeout=60.0)
        assert status["status"] == "done"
        # no constraints configured, so every evaluated candidate was kept
        assert status["evaluated"] == len(reference.alternatives)
        assert status["alternatives"] == len(reference.alternatives)
        assert "generation" in status and status["generation"]["yielded"] > 0
        assert "cache" in status and status["cache"]["lookups"] > 0
        result = client.result(job_id)
        assert result.fingerprint() == reference.fingerprint()

    def test_one_liner_plan(self, client, linear_flow, make_config):
        reference = Planner(configuration=make_config()).plan(linear_flow)
        result = client.plan(linear_flow, _WIRE_CONFIG, timeout=60.0)
        assert result.fingerprint() == reference.fingerprint()

    def test_result_before_done_is_409_and_unknown_is_404(self, client, server, linear_flow):
        with pytest.raises(RedesignServiceError) as excinfo:
            client.result_raw("plan-9999")
        assert excinfo.value.status == 404
        # a queued/running job refuses its result cleanly
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        try:
            client.result_raw(job_id)
        except RedesignServiceError as exc:
            assert exc.status == 409
        client.wait(job_id, timeout=60.0)

    def test_plans_listing_and_health(self, client, server, linear_flow):
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        client.wait(job_id, timeout=60.0)
        health = client.health()
        assert health["status"] == "ok" and health["workers"] == 2
        with urllib.request.urlopen(server.url + "/plans", timeout=5.0) as response:
            listing = json.loads(response.read().decode("utf-8"))
        assert any(job["id"] == job_id for job in listing["plans"])

    def test_invalid_flow_is_rejected_at_submit(self, client, server):
        """A structurally broken flow never reaches the worker pool."""
        from repro.etl.builder import FlowBuilder

        builder = FlowBuilder("empty")  # no operations at all: a hard error
        with pytest.raises(RedesignServiceError) as excinfo:
            client.submit(builder.build(validate=False), _WIRE_CONFIG)
        assert excinfo.value.status == 400
        assert "malformed flow" in excinfo.value.message

    @pytest.mark.parametrize(
        "knob",
        [
            "copy_mode",
            "prefix_cache",
            "backend",
            "cache_tier",
            "cache_url",
            "cache_compression",
            "cache_recovery_interval",
            "cache_max_pending",
            "fleet_ring_replicas",
            "parallel_workers",
            "screening_beam",
            "cache_profiles",
        ],
    )
    def test_removed_mode_knobs_are_rejected_at_submit(self, client, linear_flow, knob):
        with pytest.raises(RedesignServiceError) as excinfo:
            client.submit(linear_flow, dict(_WIRE_CONFIG, **{knob: "cow"}))
        assert excinfo.value.status == 400
        assert f"unknown configuration field: {knob!r}" in excinfo.value.message

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pattern_budget", 2.5),
            ("simulation_runs", 1.5),
            ("max_points_per_pattern", 1.5),
            ("eval_batch_size", 2.5),
            ("seed", "x"),
            ("policy", 3),
            ("max_alternatives", True),
            ("pattern_names", "recovery_point"),
            ("pattern_names", 5),
            ("constraints", [{"target": "performance", "min_value": "x"}]),
        ],
    )
    def test_mistyped_fields_are_rejected_at_submit(
        self, client, server, linear_flow, field, value
    ):
        """A wrongly typed knob is a 400 at submit, never a failed job."""
        with pytest.raises(RedesignServiceError) as excinfo:
            client.submit(linear_flow, dict(_WIRE_CONFIG, **{field: value}))
        assert excinfo.value.status == 400
        assert field in excinfo.value.message
        assert server.plans_payload() == []

    def test_runtime_failure_fails_the_job_not_the_server(self, client, server, linear_flow):
        """An error inside the planning run surfaces as a failed job."""
        job_id = client.submit(
            linear_flow, dict(_WIRE_CONFIG, policy="no-such-policy")
        )
        status = client.wait(job_id, timeout=60.0)
        assert status["status"] == "failed"
        assert "no-such-policy" in status["error"]
        with pytest.raises(RedesignServiceError) as excinfo:
            client.result_raw(job_id)
        assert excinfo.value.status == 409
        assert client.health()["status"] == "ok"  # the worker survived


class TestStatusLongPoll:
    """``GET /plans/<id>?wait=<s>``: the worker is the test, acking on cue."""

    @pytest.fixture(params=["memory", "file-same-handle", "file-other-handle"])
    def gated(self, request, tmp_path):
        """``(server, acking queue)``: a front-end over a queue nobody drains."""
        if request.param == "memory":
            queue = acker = JobQueue(":memory:")
        else:
            queue = JobQueue(tmp_path / "jobs.sqlite")
            acker = queue if request.param == "file-same-handle" else JobQueue(queue.path)
        server = RedesignServer(queue=queue).start()
        yield server, acker
        server.stop()
        for handle in {id(queue): queue, id(acker): acker}.values():
            handle.close()

    @staticmethod
    def _entered(server) -> threading.Event:
        """An event set once a long-poll waits on the server's queue."""
        waiting = threading.Event()
        wait_for_ack = server.queue.wait_for_ack

        def entered(*args):
            waiting.set()
            wait_for_ack(*args)

        server.queue.wait_for_ack = entered
        return waiting

    def test_an_ack_ends_the_wait_in_one_request(self, gated, linear_flow, monkeypatch):
        server, acker = gated
        client = RedesignClient(server.url, timeout=10.0)  # holds of 5 s
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        leased = acker.lease("gate")
        assert leased is not None and leased.job_id == job_id
        requests: list[float] = []
        status = client.status
        monkeypatch.setattr(
            client, "status", lambda job, wait=0.0: requests.append(wait) or status(job, wait)
        )
        waiting = self._entered(server)
        outcome: list = []
        poller = threading.Thread(
            target=lambda: outcome.append(client.wait(job_id, timeout=30.0))
        )
        started = time.monotonic()
        poller.start()
        assert waiting.wait(5.0)
        assert acker.ack(job_id, "gate", "done", result={"gated": True})
        poller.join(5.0)
        elapsed = time.monotonic() - started
        assert outcome and outcome[0]["status"] == "done"
        assert len(requests) == 1 and requests[0] == 5.0
        assert elapsed < 4.0  # woken by the ack (or a re-read), not by the hold

    def test_the_wait_elapses_on_a_job_that_stays_queued(self, gated, linear_flow):
        server, _ = gated
        client = RedesignClient(server.url, timeout=10.0)
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        started = time.monotonic()
        assert client.status(job_id, wait=0.1)["status"] == "queued"
        assert time.monotonic() - started >= 0.1
        with pytest.raises(TimeoutError):
            client.wait(job_id, timeout=0.05)

    def test_a_shared_file_is_reread_no_faster_than_a_sleeping_poll(
        self, gated, linear_flow, monkeypatch
    ):
        """Re-reads back off 0.05 s -> 1 s, the schedule of the removed client poll.

        A fake clock stands in for the hold, so nothing sleeps: each wait
        on the queue advances it by its full timeout (no ack arrives).
        """
        from repro.service import redesign_server

        server, _ = gated
        job_id = server.submit({"flow": linear_flow.to_dict(), "configuration": _WIRE_CONFIG})[
            "id"
        ]
        clock = [0.0]
        slices: list[float] = []

        def no_ack(seen, timeout, stop):
            slices.append(timeout)
            clock[0] += timeout

        monkeypatch.setattr(
            redesign_server, "time", type("Clock", (), {"monotonic": lambda: clock[0]})
        )
        monkeypatch.setattr(server.queue, "wait_for_ack", no_ack)
        reads = []
        read = server.queue.status
        monkeypatch.setattr(server.queue, "status", lambda job: reads.append(job) or read(job))
        assert server.status(job_id, wait=3.0)["status"] == "queued"
        if server.queue.path == ":memory:":
            assert slices == [pytest.approx(3.0)]  # only an ack or the deadline ends it
        else:
            assert slices == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 0.45])
        assert len(reads) == len(slices) + 1

    @pytest.mark.parametrize("wait", ["-1", "soon", "nan", "inf"])
    def test_a_malformed_wait_is_a_400(self, server, linear_flow, wait):
        client = RedesignClient(server.url, timeout=10.0)
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        with pytest.raises(RedesignServiceError) as excinfo:
            client._request(f"/plans/{job_id}?wait={wait}")
        assert excinfo.value.status == 400

    def test_a_long_poll_on_an_unknown_job_is_a_404(self, server):
        with pytest.raises(RedesignServiceError) as excinfo:
            RedesignClient(server.url, timeout=10.0).status("plan-9999", wait=5.0)
        assert excinfo.value.status == 404


@DEPLOYMENTS
class TestJobRetention:
    def test_finished_jobs_are_compacted_and_evicted_beyond_the_cap(
        self, make_server, linear_flow
    ):
        server = make_server(workers=1, max_retained_jobs=2)
        client = RedesignClient(server.url, timeout=10.0)
        job_ids = []
        for _ in range(3):
            job_id = client.submit(linear_flow, _WIRE_CONFIG)
            client.wait(job_id, timeout=60.0)
            job_ids.append(job_id)
        # no finished job is still held as a running one...
        assert server.jobs_snapshot() == []
        # ...but its status payload still carries the captured stats
        status = client.status(job_ids[-1])
        assert status["alternatives"] > 0 and status["skyline_size"] > 0
        assert "generation" in status and "cache" in status
        result = client.result(job_ids[-1])
        assert result.alternatives
        # the oldest finished job was evicted at the third submission
        with pytest.raises(RedesignServiceError) as excinfo:
            client.status(job_ids[0])
        assert excinfo.value.status == 404
        assert [plan["id"] for plan in client._request("/plans")["plans"]] == job_ids[1:]

    def test_delete_frees_a_finished_job(self, client, server, linear_flow):
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        client.wait(job_id, timeout=60.0)
        assert client.delete(job_id)["deleted"] is True
        assert all(plan["id"] != job_id for plan in server.plans_payload())
        for call in (client.status, client.delete):
            with pytest.raises(RedesignServiceError) as excinfo:
                call(job_id)
            assert excinfo.value.status == 404

    def test_rejects_nonpositive_retention_cap(self, make_server):
        with pytest.raises(ValueError, match="max_retained_jobs"):
            make_server(max_retained_jobs=0)

    def test_broken_backend_cannot_strand_a_job_in_running(self, make_server, linear_flow):
        """A cache backend raising even in its stats calls still yields a
        terminal *failed* job (never a forever-``running`` one) and a
        status endpoint that answers instead of 500ing."""
        from repro.cache import CacheStats

        class ExplodingBackend:
            batch_writes = False
            stats = CacheStats()

            def get(self, key):
                raise RuntimeError("backend down")

            def get_many(self, keys):
                raise RuntimeError("backend down")

            def put(self, key, profile):
                raise RuntimeError("backend down")

            def tier_stats(self):
                raise RuntimeError("backend down")

            def flush(self):
                pass

            def clear(self):
                pass

            def __len__(self):
                return 0

            def __contains__(self, key):
                return False

        server = make_server(cache=ExplodingBackend(), workers=1)
        client = RedesignClient(server.url, timeout=10.0)
        job_id = client.submit(linear_flow, _WIRE_CONFIG)
        status = client.wait(job_id, timeout=60.0)
        assert status["status"] == "failed"
        assert "backend down" in status["error"]
        assert client.delete(job_id)["deleted"] is True  # reclaimable

    def test_delete_with_a_body_does_not_desync_keepalive(self, server):
        """The DELETE body is drained; the next request parses cleanly."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            connection.request(
                "DELETE",
                "/plans/nope",
                body=json.dumps({"reason": "cleanup"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestConcurrentSubmissions:
    def test_four_concurrent_posts_on_a_bounded_pool(self, linear_flow, branching_flow):
        with RedesignServer(cache=ProfileCache(), workers=2) as server:
            client = RedesignClient(server.url, timeout=10.0)
            flows = [linear_flow, branching_flow, linear_flow, branching_flow]
            job_ids: list = [None] * len(flows)

            def submit(index: int) -> None:
                job_ids[index] = client.submit(flows[index], _WIRE_CONFIG)

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(len(flows))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(set(job_ids)) == 4, "every submission got its own job id"
            statuses = [client.wait(job_id, timeout=120.0) for job_id in job_ids]
            assert all(s["status"] == "done" for s in statuses)
            # identical flows produced identical results through the pool
            first = client.result(job_ids[0])
            third = client.result(job_ids[2])
            assert first.fingerprint() == third.fingerprint()
            # ...and the shared cache saw cross-job hits (flow 3 == flow 1)
            assert server.cache.stats.hits > 0


class TestConfigurationFromRequest:
    def test_accepts_the_documented_surface(self):
        config = configuration_from_request(
            {
                "pattern_budget": 2,
                "policy": "heuristic",
                "pattern_names": ["recovery_point"],
                "goal_priorities": {"performance": 2.0, "reliability": 1.0},
                "skyline_characteristics": ["performance", "reliability"],
                "constraints": [{"target": "performance", "min_value": 10.0}],
            }
        )
        assert config.pattern_budget == 2
        assert config.pattern_names == ("recovery_point",)
        assert len(config.constraints) == 1

    def test_rejects_reserved_unknown_and_invalid(self):
        with pytest.raises(ServiceError, match="owned by the service"):
            configuration_from_request({"cache_dir": "/tmp/profiles"})
        with pytest.raises(ServiceError, match="unknown configuration field"):
            configuration_from_request({"not_a_knob": 1})
        with pytest.raises(ServiceError, match="invalid configuration"):
            configuration_from_request({"pattern_budget": 0})
        with pytest.raises(ServiceError, match="malformed goal_priorities"):
            configuration_from_request({"goal_priorities": {"nope": "x"}})
        assert configuration_from_request(None).pattern_budget == 2  # defaults

    @pytest.mark.parametrize(
        "field",
        [
            "cache_dir",
            "cache_max_bytes",
            "cache_timeout",
            "cache_auth_token",
            "cache_urls",
            "metrics_registry",
        ],
    )
    def test_service_owned_fields_are_rejected(self, field):
        """The cache tier and the metrics registry belong to the server."""
        with pytest.raises(ServiceError, match="owned by the service") as excinfo:
            configuration_from_request({"pattern_budget": 1, field: None})
        assert excinfo.value.status == 400
        assert repr(field) in excinfo.value.message

    def test_http_level_rejections(self, server, linear_flow):
        def post(payload: dict) -> int:
            request = urllib.request.Request(
                server.url + "/plans",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                urllib.request.urlopen(request, timeout=5.0)
                return 200
            except urllib.error.HTTPError as exc:
                exc.read()
                return exc.code

        import urllib.error

        assert post({}) == 400  # no flow
        assert post({"flow": "not-a-document"}) == 400
        assert post({"flow": {"bogus": True}}) == 400  # malformed flow doc
        unknown_dtype = linear_flow.to_dict()
        unknown_dtype["operations"][0]["output_schema"][0]["dtype"] = "no-such-type"
        assert post({"flow": unknown_dtype}) == 400
        assert (
            post({"flow": linear_flow.to_dict(), "configuration": {"cache_dir": "/x"}})
            == 400
        )
