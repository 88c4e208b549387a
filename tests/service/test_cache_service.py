"""The cache service: server + HTTP client tier behaviour.

Covers the CacheBackend contract over the network (buffered writes
visible locally, one flush per campaign, logical stats), the fleet
scenario (two clients warm each other through one server), key-named
disk entries across server restarts, prompt shutdown of
an idle server, and the planner-level wiring of a one-URL ``cache_urls``
ring.
"""

from __future__ import annotations

import logging
import time

import pytest

from repro.cache import DiskProfileCache, ProfileCache
from repro.cache.http import HTTPProfileCache
from repro.core import Planner, ProcessingConfiguration, RedesignSession
from repro.quality.composite import QualityProfile
from repro.service import CacheServer, RedesignServer
from tests.keys import cache_key


def _profile(name: str = "p") -> QualityProfile:
    return QualityProfile(flow_name=name)


@pytest.fixture()
def disk_server(tmp_path):
    with CacheServer(DiskProfileCache(tmp_path / "store")) as server:
        yield server


@pytest.fixture()
def client(disk_server):
    return HTTPProfileCache(disk_server.url, timeout=5.0)


class TestClientBackendContract:
    def test_put_buffers_until_flush_then_publishes(self, disk_server, client):
        key = cache_key("k", 1)
        client.put(key, _profile("mine"))
        # buffered: visible to this instance, invisible to the server
        assert key in client
        assert client.get(key).flow_name == "mine"
        assert len(disk_server.backend) == 0
        client.flush()
        assert len(disk_server.backend) == 1
        # a second client now sees it through the server
        other = HTTPProfileCache(disk_server.url)
        assert other.get(key).flow_name == "mine"
        assert other.stats.hits == 1

    def test_stats_count_one_per_lookup_on_either_side(self, client):
        client.put(cache_key("a"), _profile())
        assert client.get(cache_key("a")) is not None  # pending buffer hit
        assert client.get(cache_key("absent")) is None  # server miss
        assert client.stats.hits == 1 and client.stats.misses == 1
        results = client.get_many([cache_key("a"), cache_key("absent"), cache_key("also-absent")])
        assert [r is not None for r in results] == [True, False, False]
        assert client.stats.hits == 2 and client.stats.misses == 3

    def test_clear_resets_client_and_server(self, disk_server, client):
        client.put(cache_key("k"), _profile())
        client.flush()
        client.clear()
        assert len(disk_server.backend) == 0
        assert client.stats.lookups == 0
        assert client.get(cache_key("k")) is None

    def test_tier_stats_exposes_client_server_fallback(self, client):
        client.get(cache_key("missing"))
        tiers = client.tier_stats()
        assert set(tiers) == {"http", "server", "fallback"}
        assert tiers["http"]["misses"] == 1
        assert tiers["server"]["misses"] == 1
        assert tiers["fallback"]["lookups"] == 0

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            HTTPProfileCache("http://127.0.0.1:1", timeout=0)


class TestSharedServer:
    def test_two_clients_see_each_others_warm_entries(self, disk_server):
        a = HTTPProfileCache(disk_server.url)
        b = HTTPProfileCache(disk_server.url)
        a.put(cache_key("shared"), _profile("from-a"))
        a.flush()
        assert b.get(cache_key("shared")).flow_name == "from-a"
        b.put(cache_key("back"), _profile("from-b"))
        b.flush()
        assert a.get(cache_key("back")).flow_name == "from-b"
        assert disk_server.stats.hits == 2

    def test_digest_path_survives_a_server_restart(self, tmp_path):
        """A fresh server on a warm cache_dir serves old entries by key."""
        store = tmp_path / "store"
        key = cache_key("persisted", 1)
        with CacheServer(DiskProfileCache(store)) as first:
            warm = HTTPProfileCache(first.url)
            warm.put(key, _profile("old"))
            warm.flush()
        with CacheServer(DiskProfileCache(store)) as second:
            fresh = HTTPProfileCache(second.url)
            assert fresh.get(key).flow_name == "old"
            # served from the file the first server wrote: the new
            # server's hot map was empty
            assert second.stats.hits == 1

    def test_entries_shared_bit_for_bit_with_local_disk_planners(self, tmp_path):
        """A local disk tier and the server address the same files."""
        store = tmp_path / "store"
        local = DiskProfileCache(store)
        key = cache_key("local-write")
        local.put(key, _profile("direct"))
        with CacheServer(DiskProfileCache(store)) as server:
            over_http = HTTPProfileCache(server.url)
            assert over_http.get(key).flow_name == "direct"
        assert local._path(key).name == f"{key}.profile.pkl"


class TestMemoryBackedServer:
    def test_in_memory_scratch_server(self):
        with CacheServer(ProfileCache()) as server:
            client = HTTPProfileCache(server.url)
            client.put(cache_key("k"), _profile("scratch"))
            client.flush()
            other = HTTPProfileCache(server.url)
            assert other.get(cache_key("k")).flow_name == "scratch"
            assert cache_key("k") in other

    def test_hot_map_eviction_falls_back_to_the_backend(self):
        with CacheServer(ProfileCache(), max_hot_entries=1) as server:
            client = HTTPProfileCache(server.url)
            client.put(cache_key("a"), _profile("pa"))
            client.put(cache_key("b"), _profile("pb"))
            client.flush()
            # "a" was evicted from the hot map; the backend still
            # holds it under the same key
            assert client.get(cache_key("a")).flow_name == "pa"
            assert client.get(cache_key("b")).flow_name == "pb"

    def test_entries_the_backend_evicted_are_misses(self):
        """The server holds no key the bounded backend has dropped."""
        with CacheServer(ProfileCache(max_entries=1), max_hot_entries=1) as server:
            client = HTTPProfileCache(server.url)
            client.put(cache_key("a"), _profile("pa"))
            client.flush()
            client.put(cache_key("b"), _profile("pb"))
            client.flush()  # the bounded backend evicted "a"
            assert client.get(cache_key("a")) is None
            assert client.get(cache_key("b")).flow_name == "pb"
            assert cache_key("a") not in client

    def test_server_state_never_outgrows_a_bounded_backend(self):
        """Storing many distinct keys must not grow the server with history."""
        # max_hot_entries=1 so the older survivor is served by the backend
        with CacheServer(ProfileCache(max_entries=2), max_hot_entries=1) as server:
            client = HTTPProfileCache(server.url)
            for i in range(20):
                client.put(cache_key(f"k{i}"), _profile(f"p{i}"))
                client.flush()
            assert len(server._hot) <= 1
            assert len(server.backend) == 2
            # the survivors still resolve their profiles
            assert client.get(cache_key("k18")).flow_name == "p18"
            assert client.get(cache_key("k19")).flow_name == "p19"
            assert client.get(cache_key("k17")) is None


class TestLifecycle:
    @pytest.mark.parametrize(
        "make", [lambda: CacheServer(ProfileCache()), RedesignServer], ids=["cache", "redesign"]
    )
    def test_idle_server_stops_promptly(self, make):
        server = make().start()
        time.sleep(0.05)  # let the accept loop block on its poll
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.25
        assert not server.running


class TestBackgroundEvictionWiring:
    def test_server_runs_the_sweeper_and_stops_it(self, tmp_path):
        probe = DiskProfileCache(tmp_path / "probe")
        probe.put(cache_key("probe"), _profile())
        entry_size = probe.size_bytes()
        disk = DiskProfileCache(tmp_path / "store", max_bytes=entry_size * 2)
        server = CacheServer(disk, eviction_interval=3600.0).start()
        try:
            client = HTTPProfileCache(server.url)
            for i in range(5):
                client.put(cache_key(f"k{i}"), _profile(f"p{i}"))
            client.flush()
            # the write path did not sweep
            assert disk.size_bytes() > disk.max_bytes
        finally:
            server.stop()  # final sweep
        assert disk.size_bytes() <= disk.max_bytes
        assert disk._sweeper is None

    def test_eviction_interval_requires_a_disk_backend(self):
        with pytest.raises(ValueError, match="disk-backed"):
            CacheServer(ProfileCache(), eviction_interval=1.0)


class TestPlannerWiring:
    def test_cache_tier_http_builds_the_client_and_plans_warm(
        self, disk_server, make_config, linear_flow
    ):
        from repro.fleet import ShardedProfileCache

        config = make_config(cache_urls=(disk_server.url,))
        cold = Planner(configuration=config)
        assert isinstance(cold.profile_cache, ShardedProfileCache)
        assert isinstance(cold.profile_cache.client_for(disk_server.url), HTTPProfileCache)
        cold_result = cold.plan(linear_flow)
        assert cold.profile_cache.stats.misses > 0
        warm = Planner(configuration=config)  # fresh client, warm server
        warm_result = warm.plan(linear_flow)
        assert warm.profile_cache.stats.misses == 0
        assert warm.profile_cache.stats.hits == warm.profile_cache.stats.lookups
        assert len(warm_result.alternatives) == len(cold_result.alternatives)

    def test_ring_servers_see_each_planner_lookup_once(self, tmp_path, make_config, linear_flow):
        """Only the planning thread looks profiles up: no second lookup per miss."""
        shards = [CacheServer(DiskProfileCache(tmp_path / f"s{i}")).start() for i in range(2)]
        try:
            config = make_config(cache_urls=tuple(shard.url for shard in shards))
            planner = Planner(configuration=config)
            planned = planner.plan(linear_flow)
            reference = Planner(configuration=make_config()).plan(linear_flow)
            assert planned.fingerprint() == reference.fingerprint()
            lookups = planner.profile_cache.stats.lookups
            assert lookups > 0
            assert sum(shard.stats.lookups for shard in shards) == lookups
            planner.profile_cache.close()
        finally:
            for shard in shards:
                shard.stop()

    def test_session_cache_stats_show_the_network_tiers(
        self, disk_server, make_config, linear_flow
    ):
        session = RedesignSession(
            linear_flow,
            configuration=make_config(cache_urls=(disk_server.url,)),
        )
        session.iterate()
        stats = session.cache_stats()
        assert stats["lookups"] > 0
        assert {"shard0:http", "shard0:server", "shard0:fallback"} <= set(stats["tiers"])
        assert stats["tiers"]["shard0:http"]["lookups"] == stats["lookups"]

    def test_configuration_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one shard URL"):
            ProcessingConfiguration(cache_urls=())
        with pytest.raises(ValueError, match="duplicates"):
            ProcessingConfiguration(cache_urls=("http://x", "http://x"))
        with pytest.raises(ValueError, match="cache_timeout"):
            ProcessingConfiguration(cache_urls=("http://x",), cache_timeout=0)
        with pytest.raises(ValueError, match="cache_max_bytes"):
            ProcessingConfiguration(cache_urls=("http://x",), cache_max_bytes=1 << 20)
        with pytest.raises(ValueError, match="mutually exclusive"):
            ProcessingConfiguration(cache_urls=("http://x",), cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="cache_auth_token requires cache_urls"):
            ProcessingConfiguration(cache_auth_token="secret")
        config = ProcessingConfiguration(
            cache_urls=("http://x",), cache_timeout=0.5, cache_auth_token="secret"
        )
        assert config.cache_timeout == 0.5


class TestDegradation:
    def test_unreachable_server_logs_once_and_falls_back(self, caplog):
        client = HTTPProfileCache("http://127.0.0.1:9", timeout=0.2)  # discard port
        with caplog.at_level(logging.WARNING, logger="repro.cache.http"):
            assert client.get(cache_key("k")) is None
            client.put(cache_key("k"), _profile("local"))
            assert client.get(cache_key("k")).flow_name == "local"  # served by the fallback
            assert client.get(cache_key("other")) is None
        warnings = [r for r in caplog.records if "falling back" in r.getMessage()]
        assert len(warnings) == 1, "degradation is logged exactly once"
        assert client.degraded
        tiers = client.tier_stats()
        assert set(tiers) == {"http", "fallback"}  # no server section when dark
        assert tiers["http"]["lookups"] == client.stats.lookups

    def test_pending_writes_move_into_the_fallback(self):
        with CacheServer(ProfileCache()) as server:
            client = HTTPProfileCache(server.url, timeout=0.5)
            client.put(cache_key("buffered"), _profile("survives"))
            server.stop()
        client.flush()  # fails -> degrades; the buffer must not be lost
        assert client.degraded
        assert client.get(cache_key("buffered")).flow_name == "survives"
