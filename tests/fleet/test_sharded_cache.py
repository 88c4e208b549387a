"""ShardedProfileCache behaviour against live shard servers.

Routing, batched fan-out, per-shard degradation/recovery, deterministic
rebalancing -- and the ISSUE 8 satellite-3 regression:
``wire_stats()``/``tier_stats()`` aggregate *every* shard client, so
``RedesignSession.cache_stats()["tiers"]`` shows the whole fleet.
"""

from __future__ import annotations

import time

import pytest

from repro.cache import ProfileCache, build_profile_cache
from repro.core.planner import Planner
from repro.core.session import RedesignSession
from repro.fleet import DEFAULT_REPLICAS, ShardedProfileCache
from repro.quality.composite import QualityProfile
from repro.service import CacheServer
from tests.conftest import fast_planner_config
from tests.fleet.conftest import PROBE_INTERVAL, make_sharded_cache
from tests.keys import cache_key

pytestmark = pytest.mark.fleet


def _profile(name: str = "p") -> QualityProfile:
    return QualityProfile(flow_name=name)


def _key(n: int) -> str:
    return cache_key("flow", n, "settings")


@pytest.fixture
def shard_servers():
    servers = [CacheServer(ProfileCache()).start() for _ in range(4)]
    yield servers
    for server in servers:
        server.stop()


@pytest.fixture
def sharded(shard_servers):
    cache = make_sharded_cache([server.url for server in shard_servers])
    yield cache
    cache.close()


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_put_get_roundtrip_across_shards(sharded):
    keys = [_key(n) for n in range(40)]
    for n, key in enumerate(keys):
        sharded.put(key, _profile(f"p{n}"))
    sharded.flush()
    for n, key in enumerate(keys):
        got = sharded.get(key)
        assert got is not None and got.flow_name == f"p{n}"
    assert sharded.stats.hits == len(keys)


def test_entries_land_on_their_ring_shard(shard_servers, sharded):
    backends = {server.url.rstrip("/"): server.backend for server in shard_servers}
    keys = [_key(n) for n in range(60)]
    for key in keys:
        sharded.put(key, _profile())
    sharded.flush()
    used_shards = set()
    for key in keys:
        owner = sharded.ring.node(key)
        used_shards.add(owner)
        # Present on the owner, absent from every other shard's store.
        for url, backend in backends.items():
            assert (key in backend) == (url == owner)
    assert len(used_shards) > 1, "60 keys should span several shards"


def test_get_many_fans_out_and_preserves_order(sharded):
    keys = [_key(n) for n in range(30)]
    for n in (3, 7, 21):
        sharded.put(keys[n], _profile(f"p{n}"))
    sharded.flush()
    results = sharded.get_many(keys)
    assert len(results) == len(keys)
    for n, result in enumerate(results):
        if n in (3, 7, 21):
            assert result is not None and result.flow_name == f"p{n}"
        else:
            assert result is None
    assert sharded.stats.hits == 3
    assert sharded.stats.misses == len(keys) - 3


def test_contains_and_len_see_all_shards(sharded):
    keys = [_key(n) for n in range(10)]
    for key in keys:
        sharded.put(key, _profile())
    sharded.flush()
    assert len(sharded) == len(keys)
    assert all(key in sharded for key in keys)
    assert _key(999) not in sharded
    sharded.clear()
    assert len(sharded) == 0


def test_build_profile_cache_constructs_sharded_tier(shard_servers):
    urls = tuple(server.url for server in shard_servers)
    cache = build_profile_cache(urls=urls, timeout=1.5, auth_token="token")
    try:
        assert isinstance(cache, ShardedProfileCache)
        assert cache.urls == tuple(sorted(urls))
        assert cache.ring.replicas == DEFAULT_REPLICAS
        client = cache.client_for(cache.urls[0])
        assert client.timeout == 1.5
    finally:
        cache.close()
    # no URLs: the in-process tier
    assert isinstance(build_profile_cache(), ProfileCache)


# ---------------------------------------------------------------------------
# Satellite 3: fleet-wide wire/tier statistics aggregation
# ---------------------------------------------------------------------------


def test_wire_stats_aggregate_every_shard_client(sharded):
    keys = [_key(n) for n in range(40)]
    for key in keys:
        sharded.put(key, _profile())
    sharded.flush()
    sharded.get_many(keys)
    aggregated = sharded.wire_stats()
    per_shard = [sharded.client_for(url).wire_stats() for url in sharded.urls]
    for counter in ("requests", "connections_opened"):
        assert aggregated[counter] == sum(stats[counter] for stats in per_shard)
    # Several shards served traffic, so the sum must exceed any single
    # client's view -- the per-client number the bug used to report.
    assert sum(1 for stats in per_shard if stats["requests"]) > 1
    assert aggregated["requests"] > max(stats["requests"] for stats in per_shard)


def test_tier_stats_list_every_shard(sharded):
    sharded.put(_key(1), _profile())
    sharded.flush()
    sharded.get(_key(1))
    tiers = sharded.tier_stats()
    assert "sharded" in tiers and "wire" in tiers
    for index in range(len(sharded.urls)):
        assert f"shard{index}:http" in tiers
        assert f"shard{index}:server" in tiers  # reachable -> server view present
    assert tiers["wire"]["requests"] == sharded.wire_stats()["requests"]
    assert tiers["sharded"]["hits"] == 1


def test_session_cache_stats_show_all_shards(shard_servers, linear_flow):
    cache = make_sharded_cache([server.url for server in shard_servers])
    planner = Planner(configuration=fast_planner_config(), profile_cache=cache)
    session = RedesignSession(linear_flow, planner=planner)
    try:
        session.iterate()
        tiers = session.cache_stats()["tiers"]
        for index in range(len(shard_servers)):
            assert f"shard{index}:http" in tiers
        assert "wire" in tiers
        assert tiers["wire"]["requests"] > 0
    finally:
        cache.close()


# ---------------------------------------------------------------------------
# Per-shard degradation and recovery
# ---------------------------------------------------------------------------


def test_dead_shard_degrades_alone_and_recovers(shard_servers, sharded):
    keys = [_key(n) for n in range(40)]
    for key in keys:
        sharded.put(key, _profile())
    sharded.flush()

    victim_index = 1
    victim_url = shard_servers[victim_index].url.rstrip("/")
    victim_port = shard_servers[victim_index].port
    victim_keys = [k for k in keys if sharded.shard_for(k) == victim_url]
    live_keys = [k for k in keys if sharded.shard_for(k) != victim_url]
    assert victim_keys and live_keys

    shard_servers[victim_index].stop()
    # First touch degrades only the victim's client.
    assert sharded.get(victim_keys[0]) is None
    assert sharded.degraded_shards == (victim_url,)
    assert not sharded.client_for(sharded.shard_for(live_keys[0])).degraded

    # Live shards keep serving their slice -- stores warm, no fallback.
    for key in live_keys:
        assert sharded.get(key) is not None

    # Writes to the dead shard land in its local fallback, readable back.
    sharded.put(victim_keys[0], _profile("offline"))
    sharded.flush()
    assert sharded.get(victim_keys[0]).flow_name == "offline"

    # Revive on the same port: the probe re-attaches and republishes.
    revived = CacheServer(ProfileCache(), port=victim_port)
    revived.start()
    try:
        wait_until(lambda: not sharded.client_for(victim_url).degraded)
        wait_until(lambda: _key_on(revived, victim_keys[0]))
        assert sharded.degraded_shards == ()
        assert sharded.get(victim_keys[0]).flow_name == "offline"
        assert sharded.wire_stats()["recoveries"] == 1
    finally:
        revived.stop()


def _key_on(server: CacheServer, key: tuple) -> bool:
    return key in server.backend


def test_get_many_survives_a_dead_shard(shard_servers, sharded):
    keys = [_key(n) for n in range(30)]
    for key in keys:
        sharded.put(key, _profile())
    sharded.flush()
    victim_url = shard_servers[2].url.rstrip("/")
    shard_servers[2].stop()
    results = sharded.get_many(keys)
    for key, result in zip(keys, results):
        if sharded.shard_for(key) == victim_url:
            assert result is None  # cold fallback, not an exception
        else:
            assert result is not None
    assert sharded.degraded_shards == (victim_url,)


# ---------------------------------------------------------------------------
# Rebalancing
# ---------------------------------------------------------------------------


def test_reconfigure_moves_only_the_removed_shards_slice(shard_servers, sharded):
    keys = [_key(n) for n in range(80)]
    removed_url = shard_servers[3].url.rstrip("/")
    before = {key: sharded.shard_for(key) for key in keys}
    for key in keys:
        sharded.put(key, _profile())
    sharded.flush()

    survivors = [u for u in sharded.urls if u != removed_url]
    surviving_clients = {u: sharded.client_for(u) for u in survivors}
    sharded.reconfigure(survivors)

    assert sharded.urls == tuple(sorted(survivors))
    for key in keys:
        owner = sharded.shard_for(key)
        if before[key] != removed_url:
            assert owner == before[key], "surviving shards' keys must not move"
        else:
            assert owner != removed_url
        # Surviving keys are still served warm from their original shard.
        if before[key] != removed_url:
            assert sharded.get(key) is not None
    for url, client in surviving_clients.items():
        assert sharded.client_for(url) is client, "surviving clients are reused"


def test_reconfigure_is_deterministic_across_clients(shard_servers):
    urls = [server.url for server in shard_servers]
    one = make_sharded_cache(urls)
    two = make_sharded_cache(list(reversed(urls)))
    try:
        one.reconfigure(urls[:3])
        two.reconfigure(list(reversed(urls[:3])))
        keys = [_key(n) for n in range(50)]
        assert [one.shard_for(k) for k in keys] == [two.shard_for(k) for k in keys]
    finally:
        one.close()
        two.close()


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least one"):
        make_sharded_cache([])
