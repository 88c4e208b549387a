"""The wire path: pooling, compression, auth, recovery.

Covers the transport contracts of :mod:`repro.wire` end-to-end against
real servers: one TCP connection per thread across a whole campaign, a
stale keep-alive socket surviving a server restart with exactly one
reconnect, transparent compression with byte-identical profiles (and
identity responses for peers that do not ask for gzip), token
authentication failing loudly (never silent fallback), degraded clients
winning traffic back through recovery probes, and the observability
surfaces (``/stats`` polls, ``len()``) staying best-effort.
"""

from __future__ import annotations

import gzip
import http.client
import json
import random
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro.cache.http as cache_http
from repro.cache import ProfileCache
from repro.cache.http import CacheAuthError, HTTPProfileCache
from repro.core import Planner
from repro.io.jsonflow import WIRE_FORMAT
from repro.quality.composite import QualityProfile
from repro.service import CacheServer, RedesignClient, RedesignServer
from repro.service.client import RedesignServiceError
from repro.wire import BodyTooLarge, compress_body, decode_body
from tests.keys import cache_key
from tests.profiles import tag, tagged


def _profile(name: str = "p") -> QualityProfile:
    return tagged(name)


def _big_profile(name: str = "big") -> QualityProfile:
    """A profile whose JSON document clears the compression threshold."""
    return tagged(name + "x" * 4096)


@pytest.fixture()
def server():
    with CacheServer(ProfileCache()) as srv:
        yield srv


def _raw_request(
    url: str, method: str, path: str, body: bytes | None = None, headers=None
) -> tuple[int, str | None, bytes]:
    """One request on a bare ``http.client`` connection, headers as given.

    Returns ``(status, Content-Encoding, body)`` exactly as they arrived:
    no ``Accept-Encoding`` is sent unless ``headers`` carries one.
    """
    split = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(split.hostname, split.port, timeout=10.0)
    try:
        connection.request(method, path, body=body, headers=dict(headers or {}))
        response = connection.getresponse()
        return response.status, response.getheader("Content-Encoding"), response.read()
    finally:
        connection.close()


class TestConnectionPooling:
    def test_one_connection_serves_a_whole_campaign(self, server):
        client = HTTPProfileCache(server.url, timeout=5.0)
        for index in range(10):
            client.put(cache_key(f"k{index}"), _profile())
        client.flush()
        assert all(client.get(cache_key(f"k{index}")) for index in range(10))
        stats = client.wire_stats()
        assert stats["connections_opened"] == 1
        assert stats["reconnects"] == 0
        assert stats["requests"] >= 11  # one flush + ten lookups

    def test_ring_campaign_opens_one_connection_and_plans_identically(
        self, server, make_config, linear_flow
    ):
        """A planner on a one-shard ``cache_urls`` ring pays one TCP
        handshake per requesting thread for a whole campaign, sends its
        large end-of-stream ``/put`` gzipped, gets large ``/get_many``
        answers back gzipped, and plans what an in-process cache plans."""
        reference = Planner(configuration=make_config()).plan(linear_flow)
        config = make_config(cache_urls=(server.url,))
        cold = Planner(configuration=config)
        cold_result = cold.plan(linear_flow)
        cold_wire = cold.profile_cache.wire_stats()
        assert cold_wire["compressed_requests"] >= 1  # the campaign's /put
        warm = Planner(configuration=config)
        warm_result = warm.plan(linear_flow)
        warm_wire = warm.profile_cache.wire_stats()
        # one planning thread (a one-shard window is looked up inline),
        # so one connection however many requests the campaign makes
        assert warm_wire["requests"] > 1
        assert warm_wire["connections_opened"] == 1
        assert warm_wire["reconnects"] == 0
        assert warm_wire["compressed_responses"] >= 1
        assert warm.profile_cache.stats.misses == 0
        assert cold_result.fingerprint() == warm_result.fingerprint() == reference.fingerprint()
        for planner in (cold, warm):
            assert not planner.profile_cache.degraded_shards
            planner.profile_cache.close()

    def test_stale_keepalive_socket_reconnects_exactly_once(self, server):
        """A server restart costs one transparent reconnect, not a plan."""
        client = HTTPProfileCache(server.url, timeout=5.0)
        client.put(cache_key("warm"), _profile("kept"))
        client.flush()
        port = server.port
        server.stop()
        restarted = CacheServer(ProfileCache(), port=port).start()
        try:
            # The pooled socket is stale; the request must be retried on
            # a fresh connection -- once -- and succeed, without the
            # client ever touching its fallback tier.
            assert client.get(cache_key("warm")) is None  # fresh (empty) store
            stats = client.wire_stats()
            assert stats["reconnects"] == 1
            assert stats["connections_opened"] == 2
            assert not client.degraded
        finally:
            restarted.stop()


class TestCompression:
    def test_roundtrip_is_byte_identical_and_actually_compressed(self, server):
        writer = HTTPProfileCache(server.url, timeout=5.0)
        profile = _big_profile()
        writer.put(cache_key("big"), profile)
        writer.flush()
        assert writer.wire_stats()["compressed_requests"] >= 1

        reader = HTTPProfileCache(server.url, timeout=5.0)
        assert reader.get(cache_key("big")) == profile  # exact document
        assert reader.wire_stats()["compressed_responses"] == 1
        assert not reader.degraded

    def test_cache_server_answers_plain_peers_with_identity_bodies(self, server):
        """A peer that sends a plain body and no ``Accept-Encoding`` gets
        a plain response holding the same document a gzip peer gets."""
        profile = _big_profile()
        writer = HTTPProfileCache(server.url, timeout=5.0)
        writer.put(cache_key("big"), profile)
        writer.flush()
        body = json.dumps({"format": WIRE_FORMAT, "digests": [cache_key("big")]}).encode()
        headers = {"Content-Type": "application/json"}
        status, coding, plain = _raw_request(server.url, "POST", "/get_many", body, headers)
        assert status == 200 and coding is None
        status, coding, zipped = _raw_request(
            server.url, "POST", "/get_many", body, {**headers, "Accept-Encoding": "gzip"}
        )
        assert status == 200 and coding == "gzip"
        assert json.loads(plain) == json.loads(decode_body(zipped, coding))
        status, coding, health = _raw_request(server.url, "GET", "/health")
        assert status == 200 and coding is None
        assert json.loads(health)["status"] == "ok"

    def test_small_bodies_travel_uncompressed(self, server):
        client = HTTPProfileCache(server.url, timeout=5.0)
        assert client.get(cache_key("tiny")) is None
        assert client.wire_stats()["compressed_requests"] == 0

    def test_gzip_result_round_trips_through_the_redesign_client(self, linear_flow):
        """Level-1 gzip responses decode to the same result a plain peer
        reads, and a plain submission is planned like a gzipped one."""
        configuration = dict(
            pattern_budget=1, max_points_per_pattern=2, simulation_runs=1, seed=7
        )
        with RedesignServer(cache=ProfileCache(), workers=1) as srv:
            client = RedesignClient(srv.url, timeout=10.0)
            job_id = client.submit(linear_flow, configuration)
            assert client.wait(job_id, timeout=60.0)["status"] == "done"
            before = client._client.compressed_responses
            document = client.result_raw(job_id)
            assert client._client.compressed_responses == before + 1
            status, coding, plain = _raw_request(srv.url, "GET", f"/plans/{job_id}/result")
            assert status == 200 and coding is None
            assert json.loads(plain)["result"] == document

            submission = json.dumps(
                {"flow": linear_flow.to_dict(), "configuration": configuration}
            ).encode()
            status, coding, accepted = _raw_request(
                srv.url, "POST", "/plans", submission, {"Content-Type": "application/json"}
            )
            assert status == 200 and coding is None
            plain_id = json.loads(accepted)["id"]
            assert client.wait(plain_id, timeout=60.0)["status"] == "done"
            assert client.result(plain_id).fingerprint() == client.result(job_id).fingerprint()
            client.close()

    def test_compress_decode_inverse_and_deterministic(self):
        payload = json.dumps({"profiles": ["x" * 4096]}).encode()
        body, coding = compress_body(payload)
        again, _ = compress_body(payload)
        assert coding == "gzip" and body == again  # mtime=0: reproducible
        assert decode_body(body, coding) == payload
        tiny = b'{"digest": "k"}'
        assert compress_body(tiny) == (tiny, None)  # below COMPRESS_MIN_BYTES

    def test_incompressible_bodies_go_out_plain(self):
        """Above the threshold, a body gzip would grow is sent as it is."""
        noise = random.Random(0).randbytes(4096)
        assert compress_body(noise) == (noise, None)

    def test_server_responses_use_the_shared_compressor(self, server):
        """The server gzips a response exactly as ``compress_body`` does:
        level 1, ``mtime=0``, so the bytes are reproducible."""
        writer = HTTPProfileCache(server.url, timeout=5.0)
        writer.put(cache_key("big"), _big_profile())
        writer.flush()
        body = json.dumps({"format": WIRE_FORMAT, "digests": [cache_key("big")]}).encode()
        headers = {"Content-Type": "application/json"}
        _, _, plain = _raw_request(server.url, "POST", "/get_many", body, headers)
        status, coding, zipped = _raw_request(
            server.url, "POST", "/get_many", body, {**headers, "Accept-Encoding": "gzip"}
        )
        assert status == 200 and coding == "gzip"
        assert (zipped, coding) == compress_body(plain)

    def test_decompression_bomb_is_rejected_with_413(self, server):
        bomb = gzip.compress(b"0" * (64 * 1024 * 1024), mtime=0)
        with pytest.raises(BodyTooLarge):
            decode_body(bomb, "gzip", max_bytes=1024)
        request = urllib.request.Request(
            server.url + "/get_many",
            data=bomb,
            headers={"Content-Type": "application/json", "Content-Encoding": "gzip"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 413

    def test_corrupt_compressed_body_is_a_400(self, server):
        request = urllib.request.Request(
            server.url + "/get_many",
            data=b"\x1f\x8bnot really gzip",
            headers={"Content-Type": "application/json", "Content-Encoding": "gzip"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5.0)
        assert excinfo.value.code == 400


class TestAuthentication:
    @pytest.fixture()
    def locked_server(self):
        with CacheServer(ProfileCache(), auth_token="s3cret") as srv:
            yield srv

    def test_matching_token_serves_normally(self, locked_server):
        client = HTTPProfileCache(locked_server.url, timeout=5.0, auth_token="s3cret")
        client.put(cache_key("k"), _profile("authed"))
        client.flush()
        assert tag(client.get(cache_key("k"))) == "authed"
        assert not client.degraded

    @pytest.mark.parametrize("token", [None, "wrong"])
    def test_bad_token_raises_instead_of_silent_fallback(self, locked_server, token):
        client = HTTPProfileCache(locked_server.url, timeout=5.0, auth_token=token)
        with pytest.raises(CacheAuthError):
            client.get(cache_key("k"))
        # The one failure an operator must see: NOT degraded-and-quiet.
        assert not client.degraded

    def test_health_stays_open_for_unauthenticated_probes(self, locked_server):
        with urllib.request.urlopen(locked_server.url + "/health", timeout=5.0) as resp:
            assert json.loads(resp.read().decode())["status"] == "ok"

    def test_redesign_client_surfaces_401(self):
        with RedesignServer(auth_token="s3cret") as srv:
            bad = RedesignClient(srv.url, timeout=5.0)
            with pytest.raises(RedesignServiceError) as excinfo:
                bad.status("any")
            assert excinfo.value.status == 401
            good = RedesignClient(srv.url, timeout=5.0, auth_token="s3cret")
            with pytest.raises(RedesignServiceError) as excinfo:
                good.status("absent")  # authenticated, but no such job
            assert excinfo.value.status == 404

    def test_empty_token_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CacheServer(ProfileCache(), auth_token="")


class TestRecoveryProbes:
    def test_degraded_client_reattaches_and_republishes(self, caplog):
        import logging

        server = CacheServer(ProfileCache()).start()
        port = server.port
        client = HTTPProfileCache(server.url, timeout=2.0, recovery_interval=0.05)
        client.put(cache_key("before"), _profile("early"))
        server.stop()
        with caplog.at_level(logging.WARNING, logger="repro.cache.http"):
            assert tag(client.get(cache_key("before"))) == "early"  # buffered
            assert client.get(cache_key("missing")) is None  # degrades here
            assert client.degraded
            client.put(cache_key("during"), _profile("offline"))  # fallback write
            restarted = CacheServer(ProfileCache(), port=port).start()
            try:
                # Re-attach flips `degraded` before the republish flush
                # lands; wait for the entries, not just the flip.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and (
                    client.degraded or len(restarted.backend) < 2
                ):
                    time.sleep(0.02)
                assert not client.degraded, "recovery probe never re-attached"
                assert client.recoveries == 1
                # Everything written while offline (and the pre-outage
                # buffer) was republished to the restarted server.
                assert len(restarted.backend) == 2
                assert tag(client.get(cache_key("during"))) == "offline"
            finally:
                restarted.stop()
                client.close()
        assert any("re-attached" in record.message for record in caplog.records)

    @pytest.mark.parametrize("interval", [0, -1.0])
    def test_recovery_interval_must_be_positive(self, interval):
        with pytest.raises(ValueError):
            HTTPProfileCache("http://127.0.0.1:1", recovery_interval=interval)

    def test_close_cancels_the_probe_timer(self):
        server = CacheServer(ProfileCache()).start()
        client = HTTPProfileCache(server.url, timeout=2.0, recovery_interval=30.0)
        server.stop()
        assert client.get(cache_key("k")) is None and client.degraded
        assert client._probe_timer is not None
        client.close()
        assert client._probe_timer is None


class TestBestEffortObservability:
    def test_failed_stats_poll_never_degrades_the_hot_path(self, server, monkeypatch):
        client = HTTPProfileCache(server.url, timeout=5.0)
        client.put(cache_key("k"), _profile("served"))
        client.flush()

        real = client._client.request_json

        def flaky(method, path, payload=None):
            if path == "/stats":
                raise OSError("monitoring endpoint down")
            return real(method, path, payload)

        monkeypatch.setattr(client._client, "request_json", flaky)
        tiers = client.tier_stats()
        assert set(tiers) == {"http", "fallback"}  # server view omitted
        assert len(client) == 0  # local view: buffer empty, fallback empty
        assert not client.degraded
        # The next lookup still goes to the server -- and hits.
        assert tag(client.get(cache_key("k"))) == "served"
        assert server.stats.hits == 1

    def test_stats_include_wire_accounting(self, server):
        client = HTTPProfileCache(server.url, timeout=5.0)
        client.get(cache_key("k"))
        stats = client.wire_stats()
        assert {
            "requests",
            "connections_opened",
            "reconnects",
            "compressed_requests",
            "compressed_responses",
            "recoveries",
        } <= set(stats)


class TestPendingBuffer:
    def test_buffer_auto_publishes_at_max_pending(self, server, monkeypatch):
        monkeypatch.setattr(cache_http, "MAX_PENDING", 3)
        client = HTTPProfileCache(server.url, timeout=5.0)
        client.put(cache_key("a"), _profile())
        client.put(cache_key("b"), _profile())
        assert len(server.backend) == 0  # still buffered
        client.put(cache_key("c"), _profile())  # third entry crosses the bound
        assert len(server.backend) == 3
        assert client._pending == {}


class TestWildcardBinding:
    def test_url_is_connectable_when_bound_to_every_interface(self):
        with CacheServer(ProfileCache(), host="0.0.0.0") as srv:
            assert srv.host == "0.0.0.0"  # the binding is preserved
            assert "0.0.0.0" not in srv.url  # ... but never advertised
            client = HTTPProfileCache(srv.url, timeout=5.0)
            assert client.get(cache_key("k")) is None
            assert not client.degraded


class TestWaitLongPoll:
    def test_wait_long_polls_and_never_sleeps(self, monkeypatch):
        client = RedesignClient("http://127.0.0.1:1", timeout=1.0, poll_max=0.08)
        statuses = iter(["queued"] * 2 + ["done"])
        holds: list[float] = []

        def status(job_id, wait=0.0):
            holds.append(wait)
            return {"status": next(statuses)}

        monkeypatch.setattr(client, "status", status)
        monkeypatch.setattr(time, "sleep", lambda s: pytest.fail("wait slept"))
        result = client.wait("job", timeout=60.0, poll=0.01)
        assert result["status"] == "done"
        # each request asks the server to hold it: half the 1 s request timeout
        assert holds == [0.5, 0.5, 0.5]

    def test_deadline_still_raises_timeout(self, monkeypatch):
        client = RedesignClient("http://127.0.0.1:1", timeout=1.0)
        monkeypatch.setattr(client, "status", lambda job_id, wait=0.0: {"status": "queued"})
        with pytest.raises(TimeoutError):
            client.wait("job", timeout=0.0, poll=0.01)

    def test_nonpositive_poll_is_rejected(self):
        client = RedesignClient("http://127.0.0.1:1", timeout=1.0)
        with pytest.raises(ValueError):
            client.wait("job", poll=0.0)
