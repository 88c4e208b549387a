"""Service failure modes: a dying cache server must never hurt a plan.

The acceptance bar of the subsystem's failure story: a full plan
survives its cache server being killed mid-run (the client degrades to
a local memory tier and the ranked alternatives come out byte-identical
to a never-cached run), and the degradation surfaces in the statistics
instead of in exceptions.
"""

from __future__ import annotations

import logging

import pytest

from repro.cache import DiskProfileCache, ProfileCache
from repro.core import Planner
from repro.service import CacheServer
from tests.keys import cache_key
from tests.profiles import tag, tagged


class TestServerKilledMidPlan:
    @pytest.mark.parametrize("kill_after", [0, 2])
    def test_plan_completes_identically_after_mid_run_kill(
        self, tmp_path, make_config, linear_flow, kill_after, caplog
    ):
        """Kill the server after ``kill_after`` evaluated alternatives."""
        reference = Planner(configuration=make_config()).plan(linear_flow)

        server = CacheServer(DiskProfileCache(tmp_path / f"s{kill_after}")).start()
        config = make_config(cache_urls=(server.url,), cache_timeout=2.0)
        planner = Planner(configuration=config)
        seen = {"count": 0}

        def killer(_alternative) -> None:
            seen["count"] += 1
            if seen["count"] == kill_after + 1 and server.running:
                server.stop()

        with caplog.at_level(logging.WARNING, logger="repro.cache.http"):
            if kill_after == 0:
                server.stop()  # dead before the very first lookup
                result = planner.plan(linear_flow)
            else:
                result = planner.plan(linear_flow, on_evaluated=killer)

        assert result.fingerprint() == reference.fingerprint()
        assert planner.profile_cache.degraded_shards == (server.url,)
        warnings = [r for r in caplog.records if "falling back" in r.getMessage()]
        assert len(warnings) == 1, "one warning, however often the dead server is hit"
        # the degradation is visible in the stats, not in exceptions
        tiers = planner.profile_cache.tier_stats()
        assert set(tiers) == {"sharded", "shard0:http", "shard0:fallback", "wire"}
        planner.profile_cache.close()

    def test_revived_server_wins_the_planner_back_mid_session(
        self, make_config, linear_flow
    ):
        """Kill mid-plan, revive: the probe re-attaches and republishes."""
        import time

        from repro.cache import HTTPProfileCache

        server = CacheServer(ProfileCache()).start()
        port = server.port
        # A fast recovery probe is a client knob, not a configuration field:
        # inject the client.
        planner = Planner(
            configuration=make_config(),
            profile_cache=HTTPProfileCache(server.url, timeout=2.0, recovery_interval=0.05),
        )
        seen = {"count": 0}

        def killer(_alternative) -> None:
            seen["count"] += 1
            if seen["count"] == 2 and server.running:
                server.stop()

        result = planner.plan(linear_flow, on_evaluated=killer)
        client = planner.profile_cache
        assert client.degraded  # the plan finished on the fallback tier
        assert len(client.fallback) > 0

        expected = len(client.fallback)
        revived = CacheServer(ProfileCache(), port=port).start()
        try:
            # Re-attach flips `degraded` first and then republishes, so
            # wait for the whole batch to land, not just the flip.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and (
                client.degraded
                or len(revived.backend) < expected
                or len(client._pending) > 0
            ):
                time.sleep(0.02)
            assert not client.degraded, "recovery probe never re-attached"
            # Every profile the fallback accumulated is on the server now...
            assert len(revived.backend) == expected
            assert len(client.fallback) == 0
            assert len(client._pending) == 0
            # ... so a re-plan is served warm by the revived server.
            hits_before = revived.stats.hits
            replanned = planner.plan(linear_flow)
            assert replanned.fingerprint() == result.fingerprint()
            assert revived.stats.hits > hits_before
        finally:
            revived.stop()
            client.close()

    def test_degraded_planner_keeps_serving_replans_locally(
        self, tmp_path, make_config, linear_flow
    ):
        """After degradation the fallback memoizes like the memory tier."""
        server = CacheServer(DiskProfileCache(tmp_path)).start()
        config = make_config(cache_urls=(server.url,), cache_timeout=2.0)
        planner = Planner(configuration=config)
        server.stop()
        first = planner.plan(linear_flow)
        lookups_after_first = planner.profile_cache.stats.lookups
        second = planner.plan(linear_flow)  # re-plan: all served by the fallback
        assert second.fingerprint() == first.fingerprint()
        new_lookups = planner.profile_cache.stats.lookups - lookups_after_first
        fallback = planner.profile_cache.client_for(server.url).fallback
        assert fallback.stats.hits >= new_lookups - 1
        planner.profile_cache.close()


class TestClientDegradesOnAnyFailure:
    """The "never fails a plan" guarantee covers more than dead sockets."""

    def test_protocol_garbage_degrades_instead_of_raising(self, monkeypatch):
        """http.client.HTTPException (not an OSError) must degrade too."""
        import http.client

        from repro.cache.http import HTTPProfileCache

        client = HTTPProfileCache("http://127.0.0.1:1", timeout=1.0)

        def bad_server(*args, **kwargs):
            raise http.client.BadStatusLine("<html>not http/1.1</html>")

        monkeypatch.setattr(client._client, "request_json", bad_server)
        assert client.get(cache_key("k")) is None  # degrades, no exception
        assert client.degraded

    def test_garbage_200_with_malformed_profiles_degrades(self, monkeypatch):
        """A 200 whose documents aren't profiles must not raise into a plan."""
        from repro.cache.http import HTTPProfileCache

        client = HTTPProfileCache("http://127.0.0.1:1", timeout=1.0)
        monkeypatch.setattr(
            client, "_request", lambda path, payload=None: {"profiles": [{"x": 1}]}
        )
        assert client.get(cache_key("k")) is None  # falls back, no exception
        assert client.degraded

    def test_garbage_200_with_a_short_profiles_array_degrades(self, monkeypatch):
        """A 200 answering fewer documents than asked is not 'all misses'."""
        from repro.cache.http import HTTPProfileCache

        client = HTTPProfileCache("http://127.0.0.1:1", timeout=1.0)
        monkeypatch.setattr(client, "_request", lambda path, payload=None: {"ok": True})
        assert client.get_many([cache_key("a"), cache_key("b")]) == [None, None]
        assert client.degraded

    def test_garbage_200_with_a_non_object_body_degrades(self, monkeypatch):
        """A proxy answering 200 with a JSON array degrades like a dead socket."""
        from repro.cache.http import HTTPProfileCache

        client = HTTPProfileCache("http://127.0.0.1:1", timeout=1.0)
        monkeypatch.setattr(
            client._client, "request_json", lambda *args, **kwargs: [1, 2, 3]
        )
        assert client.get(cache_key("k")) is None
        assert client.degraded

    def test_unserializable_key_degrades_on_flush_without_losing_the_entry(self):
        """json.dumps failures count as cache failures, not plan failures."""
        from repro.cache.http import HTTPProfileCache

        with CacheServer(ProfileCache()) as server:
            client = HTTPProfileCache(server.url, timeout=2.0)
            key = (b"bytes-are-hashable-but-not-json",)
            client.put(key, tagged("kept"))
            client.flush()  # TypeError inside the request -> degrade
            assert client.degraded
            assert tag(client.get(key)) == "kept"  # served by the fallback
