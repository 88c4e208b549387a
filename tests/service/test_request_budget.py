"""The wire requests one service job costs on a two-shard cache ring.

A budget-1 job is one lookup window, so the ring sees one ``/get_many``
per shard that owns one of its keys, and nothing else: no ``/get`` for
the initial flow (it rides in the window) and no ``/stats`` (the job
summary reads the client's local counters).  A cold job adds one
``/put`` per shard with pending entries.  Requests are counted per
route on the shard servers themselves.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.cache import ProfileCache
from repro.core import Planner
from repro.fleet import ShardedProfileCache
from repro.service import CacheServer, RedesignClient, RedesignServer
from repro.service.cache_server import _CacheHandler
from tests.conftest import fast_planner_config

#: A budget-1 job of ``small_purchases``: well inside one window.
JOB = dict(pattern_budget=1, max_points_per_pattern=2, simulation_runs=1, seed=7)


@pytest.fixture
def routes(monkeypatch):
    """``{(shard server, method, path): requests}``, counted as they are routed."""
    counts: Counter = Counter()
    lock = threading.Lock()
    route = _CacheHandler.route

    def counting(self, method, path, body):
        with lock:
            counts[(self.server.service, method, path)] += 1
        return route(self, method, path, body)

    monkeypatch.setattr(_CacheHandler, "route", counting)
    return counts


@pytest.fixture
def ring():
    shards = [CacheServer(ProfileCache()).start() for _ in range(2)]
    cache = ShardedProfileCache([shard.url for shard in shards])
    server = RedesignServer(cache=cache, workers=2).start()
    client = RedesignClient(server.url)
    yield shards, cache, client
    client.close()
    server.stop()
    cache.close()
    for shard in shards:
        shard.stop()


def _run_job(client, flow) -> object:
    job_id = client.submit(flow, JOB)
    assert client.wait(job_id, timeout=60)["status"] == "done"
    result = client.result(job_id)
    client.delete(job_id)
    return result


def test_a_budget_one_job_costs_one_lookup_per_shard(ring, routes, small_purchases):
    shards, cache, client = ring
    by_url = {shard.url: shard for shard in shards}
    # every profile the job needs: the initial flow and each alternative
    estimator = Planner(configuration=fast_planner_config(**JOB)).estimator
    reference = Planner(configuration=fast_planner_config(**JOB)).plan(small_purchases)
    flows = [small_purchases] + [alt.flow for alt in reference.alternatives]
    assert len(flows) <= fast_planner_config().eval_batch_size
    owners = {by_url[cache.shard_for(estimator.cache_key(flow))] for flow in flows}
    assert len(owners) == 2

    cold = _run_job(client, small_purchases)
    assert cold.fingerprint() == reference.fingerprint()
    assert dict(routes) == {
        **{(shard, "POST", "/get_many"): 1 for shard in owners},
        **{(shard, "POST", "/put"): 1 for shard in owners},
    }

    routes.clear()
    warm = _run_job(client, small_purchases)
    assert warm.fingerprint() == reference.fingerprint()
    assert dict(routes) == {(shard, "POST", "/get_many"): 1 for shard in owners}
