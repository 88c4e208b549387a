"""``GET /metrics`` over the wire: payload shape, prom text, auth, scrapes.

The monitoring contract: every server answers ``/metrics`` with its
registry snapshot plus derived golden metrics, the endpoint stays open
for unauthenticated probes (like ``/health``), and a scrape is a pure
read -- it never degrades a client mid-campaign or skews the latency
it reports.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cache import ProfileCache
from repro.cache.http import HTTPProfileCache
from repro.service import CacheServer, RedesignClient, RedesignServer
from tests.keys import cache_key
from tests.profiles import tagged

_WIRE_CONFIG = dict(
    pattern_budget=1,
    max_points_per_pattern=2,
    simulation_runs=1,
    max_alternatives=200,
    seed=7,
)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers.get("Content-Type", ""), response.read()


def _get_json(url: str) -> dict:
    status, content_type, body = _get(url)
    assert status == 200
    assert content_type.startswith("application/json")
    return json.loads(body.decode())


@pytest.fixture()
def server():
    with CacheServer(ProfileCache()) as srv:
        yield srv


class TestCacheServerMetrics:
    def test_json_payload_shape(self, server):
        payload = _get_json(server.url + "/metrics")
        assert payload["server"] == "cache"
        assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}
        assert isinstance(payload["golden"], dict)

    def test_traffic_shows_up_in_counters_and_golden(self, server):
        client = HTTPProfileCache(server.url, timeout=5.0)
        client.put(cache_key("k"), tagged("k"))
        client.flush()
        assert client.get(cache_key("k")) is not None
        assert client.get(cache_key("absent")) is None
        payload = _get_json(server.url + "/metrics")
        counters = payload["metrics"]["counters"]
        assert counters["cache.hits"] >= 1
        assert counters["cache.misses"] >= 1
        assert 0.0 < payload["golden"]["cache_hit_rate"] < 1.0
        assert payload["entries"] >= 1
        # the scrapes themselves were timed; the routed traffic too
        histograms = payload["metrics"]["histograms"]
        assert histograms["service.request_seconds"]["count"] > 0

    def test_prometheus_text_exposition(self, server):
        client = HTTPProfileCache(server.url, timeout=5.0)
        assert client.get(cache_key("absent")) is None
        status, content_type, body = _get(server.url + "/metrics?format=prom")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode()
        assert "# TYPE repro_cache_misses counter" in text
        assert "repro_cache_misses 1" in text
        assert text.endswith("\n")

    def test_unknown_format_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/metrics?format=xml", timeout=5.0)
        assert excinfo.value.code == 400
        assert "unknown metrics format" in json.loads(excinfo.value.read().decode())["error"]

    def test_metrics_stays_open_on_a_locked_server(self):
        with CacheServer(ProfileCache(), auth_token="s3cret") as locked:
            # other routes demand the token ...
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(locked.url + "/stats", timeout=5.0)
            assert excinfo.value.code == 401
            # ... monitoring probes do not
            assert _get_json(locked.url + "/metrics")["server"] == "cache"
            assert _get(locked.url + "/metrics?format=prom")[0] == 200


class TestRedesignServerMetrics:
    def test_plan_latency_reported_after_a_job(self, linear_flow):
        with RedesignServer(cache=ProfileCache(), workers=1) as srv:
            client = RedesignClient(srv.url, timeout=10.0)
            client.plan(linear_flow, _WIRE_CONFIG, timeout=60.0)
            payload = _get_json(srv.url + "/metrics")
            assert payload["server"] == "redesign"
            # job outcomes come from the queue the local workers ack into
            histograms = payload["metrics"]["histograms"]
            assert histograms["queue.enqueue_to_ack_seconds"]["count"] == 1
            assert histograms["queue.enqueue_to_ack_seconds"]["p99"] > 0
            assert payload["metrics"]["counters"]["queue.acked_done"] == 1
            assert payload["queue"]["done"] == 1
            golden = payload["golden"]
            assert golden["plan_count"] == 1.0
            assert golden["plan_p99_seconds"] >= golden["plan_p50_seconds"] > 0


class TestScrapeIsAPureRead:
    def test_mid_campaign_scrapes_never_degrade_the_client(self, server):
        """A monitoring loop and a working client share one server."""
        client = HTTPProfileCache(server.url, timeout=5.0)
        for index in range(10):
            client.put(cache_key("warm", index), tagged(f"p{index}"))
        client.flush()

        stop = threading.Event()
        scrapes: list[dict] = []
        failures: list[str] = []

        def scrape_loop() -> None:
            while not stop.is_set():
                try:
                    scrapes.append(_get_json(server.url + "/metrics"))
                except Exception as error:  # noqa: BLE001 - recorded for the assert
                    failures.append(repr(error))

        scraper = threading.Thread(target=scrape_loop)
        scraper.start()
        try:
            for _ in range(20):
                results = client.get_many([cache_key("warm", index) for index in range(10)])
                assert all(result is not None for result in results)
        finally:
            stop.set()
            scraper.join()

        assert failures == []
        assert not client.degraded
        assert len(scrapes) >= 1
        # successive scrapes observe monotone counters -- no torn reads
        previous_hits = 0
        for payload in scrapes:
            hits = payload["metrics"]["counters"].get("cache.hits", 0)
            assert hits >= previous_hits
            previous_hits = hits
        # a final scrape, after all traffic, sees every hit
        final = _get_json(server.url + "/metrics")
        assert final["metrics"]["counters"]["cache.hits"] >= 200
