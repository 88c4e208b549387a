"""Failure-mode and failure-storm tests of the whole fleet (ISSUE 8).

The scale-out promise is not speed, it is *indifference*: killing a
shard of four mid-plan, or killing a leased worker outright, must change
nothing about the produced plans -- byte-identical result documents, no
lost jobs, and re-simulation bounded to what the dead worker actually
held.  These tests drive exactly those storms against the in-process
harness of ``conftest.py``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.planner import Planner
from repro.core.session import RedesignSession
from repro.service.redesign_server import configuration_from_request
from repro.service.results import result_to_dict
from tests.fleet.conftest import FleetHarness
from tests.keys import cache_key
from tests.profiles import tag, tagged

pytestmark = pytest.mark.fleet

#: The deterministic fleet-side planning configuration of every storm
#: job; small enough that one plan takes well under ten seconds, large
#: enough that status polling reliably observes it mid-flight.
STORM_CONFIG = {
    "pattern_budget": 1,
    "max_points_per_pattern": 2,
    "simulation_runs": 1,
    "max_alternatives": 200,
    "seed": 7,
}


def canonical(result_doc: dict) -> str:
    """A result document as canonical bytes, for byte-identity checks."""
    return json.dumps(result_doc, sort_keys=True)


def solo_baseline(flow) -> str:
    """The canonical result of planning ``flow`` in-process, no fleet.

    Decodes the configuration through the same request path the workers
    use, so fleet and baseline agree on every knob.
    """
    configuration = configuration_from_request(dict(STORM_CONFIG))
    planner = Planner(configuration=configuration)
    iteration = RedesignSession(flow, planner=planner).iterate()
    return canonical(result_to_dict(iteration.result))


def wait_for(predicate, timeout: float = 30.0, poll: float = 0.01):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError("condition not reached in time")


def hold_first_plan_until_killed(monkeypatch, worker) -> threading.Event:
    """Hold the first plan started in this process inside ``worker`` until it is killed.

    The plan stops at its first evaluated alternative and waits for the
    worker's kill, so a test kills a worker mid-job whatever the speed of
    planning, with no sleep.  The returned event is set once the plan is
    held; later plans run unhindered.
    """
    holding = threading.Event()
    iterate = RedesignSession.iterate

    def iterate_held_until_killed(session, on_evaluated=None):
        def gate(alternative):
            if not holding.is_set():
                holding.set()
                worker._killed.wait(timeout=30)
            if on_evaluated is not None:
                on_evaluated(alternative)

        return iterate(session, on_evaluated=gate)

    monkeypatch.setattr(RedesignSession, "iterate", iterate_held_until_killed)
    return holding


# ---------------------------------------------------------------------------
# Satellite 2a: kill one shard of four mid-plan
# ---------------------------------------------------------------------------


def test_kill_one_shard_of_four_mid_plan(make_fleet, branching_flow):
    baseline = solo_baseline(branching_flow)
    fleet = make_fleet(n_shards=4, n_workers=1)
    client = fleet.client()
    [cache] = fleet.caches
    victim = 2
    victim_url = fleet.shard_urls[victim]

    # Warm run: all four shards serving, result must match solo.
    warm_id = client.submit(branching_flow, configuration=dict(STORM_CONFIG))
    client.wait(warm_id, timeout=60)
    assert canonical(client.result_raw(warm_id)) == baseline

    # Storm run: pull the shard out from under the plan.
    job_id = client.submit(branching_flow, configuration=dict(STORM_CONFIG))
    wait_for(lambda: client.status(job_id).get("evaluated", 0) >= 1)
    fleet.kill_shard(victim)
    status = client.wait(job_id, timeout=60)

    # The plan neither failed nor changed by a byte.
    assert status["status"] == "done"
    assert canonical(client.result_raw(job_id)) == baseline

    # Only the victim's client degraded; the other shards stayed warm.
    assert cache.degraded_shards in ((), (victim_url,))
    for index, shard in enumerate(fleet.shards):
        if index != victim:
            assert shard is not None
            assert len(shard.backend) > 0, f"shard {index} lost its store"
            assert not cache.client_for(fleet.shard_urls[index]).degraded

    # Revive on the same port: the probe re-attaches the client...
    fleet.revive_shard(victim)
    cache.get(cache_key("poke", "the", "degraded", "client"))  # ensure degradation seen
    wait_for(lambda: not cache.client_for(victim_url).degraded, timeout=10)
    assert cache.degraded_shards == ()

    # ... and the revived shard serves its slice again: a key the ring
    # assigns to it round-trips through the fleet to the new store.
    sentinel = next(
        cache_key("sentinel", n) for n in range(10_000)
        if cache.shard_for(cache_key("sentinel", n)) == victim_url
    )
    cache.put(sentinel, tagged("republished"))
    cache.flush()
    assert sentinel in fleet.shards[victim].backend
    got = cache.get(sentinel)
    assert got is not None and tag(got) == "republished"


# ---------------------------------------------------------------------------
# Satellite 2b: kill a leased worker
# ---------------------------------------------------------------------------


def test_killed_worker_job_is_re_leased_exactly_once(make_fleet, linear_flow, monkeypatch):
    baseline = solo_baseline(linear_flow)
    fleet = make_fleet(n_shards=2, n_workers=1, lease_timeout=1.0)
    client = fleet.client()

    worker = fleet.workers["w0"]
    holding = hold_first_plan_until_killed(monkeypatch, worker)
    job_id = client.submit(linear_flow, configuration=dict(STORM_CONFIG))
    # The plan is held inside the worker until the kill lands, so the
    # abandon is guaranteed to strand a held lease.
    assert holding.wait(timeout=30)
    fleet.kill_worker("w0")
    assert fleet.workers["w0"].jobs_abandoned == 1
    assert fleet.workers["w0"].jobs_done == 0

    # The job is NOT lost: it sits leased-but-expiring until a worker
    # (here a fresh one; a restarted "w0" works the same) re-leases it.
    replacement = fleet.add_worker("w1")
    status = client.wait(job_id, timeout=60)
    assert status["status"] == "done"
    assert status["worker"] == "w1"
    assert status["attempts"] == 2, "one original lease + exactly one re-lease"
    assert replacement.jobs_done == 1

    # No duplicate result rows: one job row, one result, the successor's.
    [job] = fleet.queue.jobs()
    assert job["id"] == job_id and job["status"] == "done"
    assert canonical(client.result_raw(job_id)) == baseline


def test_restarted_worker_reregisters_and_drains_its_own_abandoned_job(
    make_fleet, linear_flow, monkeypatch
):
    fleet = make_fleet(n_shards=2, n_workers=1, lease_timeout=1.0)
    first = fleet.workers["w0"]
    holding = hold_first_plan_until_killed(monkeypatch, first)
    client = fleet.client()
    job_id = client.submit(linear_flow, configuration=dict(STORM_CONFIG))
    assert holding.wait(timeout=30)
    fleet.kill_worker("w0")
    assert first.jobs_abandoned == 1
    assert first.jobs_done == 0

    # Restart under the SAME name -- the tools/worker.py restart story.
    fleet.add_worker("w0")
    status = client.wait(job_id, timeout=60)
    assert status["status"] == "done"
    assert status["worker"] == "w0"
    assert status["attempts"] == 2
    [registration] = [w for w in fleet.queue.workers() if w["id"] == "w0"]
    assert registration["restarts"] == 1


# ---------------------------------------------------------------------------
# The tentpole: a full failure storm mid-campaign
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_failure_storm_loses_nothing_and_changes_nothing(
    make_fleet, linear_flow, branching_flow
):
    """Kill a shard AND a worker mid-campaign; demand perfection anyway.

    Asserts the ISSUE 8 acceptance triple: zero lost jobs, byte-identical
    plans for every job, and bounded re-simulation (only the killed
    worker's single held job is ever re-leased).
    """
    flows = {"linear": linear_flow, "branching": branching_flow}
    baselines = {name: solo_baseline(flow) for name, flow in flows.items()}

    fleet = make_fleet(n_shards=4, n_workers=3, lease_timeout=1.5)
    client = fleet.client()
    campaign: dict[str, str] = {}  # job id -> flow name
    for round_ in range(3):
        for name, flow in flows.items():
            job_id = client.submit(flow, configuration=dict(STORM_CONFIG))
            campaign[job_id] = name

    # Let the campaign get going, then storm: a shard dies...
    wait_for(lambda: fleet.queue.stats()["leased"] >= 1)
    fleet.kill_shard(1)
    # ... and a worker dies (with whatever lease it holds un-acked).
    fleet.kill_worker("w1")
    time.sleep(0.2)
    # The operator reacts: the shard comes back cold, the worker restarts.
    fleet.revive_shard(1)
    fleet.add_worker("w1")

    # Zero lost jobs: every submission reaches done.
    for job_id in campaign:
        assert client.wait(job_id, timeout=120)["status"] == "done"

    # Byte-identical plans: each result matches its solo baseline.
    for job_id, name in campaign.items():
        assert canonical(client.result_raw(job_id)) == baselines[name], (
            f"job {job_id} ({name}) diverged from the solo plan"
        )

    # Bounded re-simulation: at most the one job the killed worker held
    # was re-leased; everything else ran exactly once.
    jobs = fleet.queue.jobs()
    assert len(jobs) == len(campaign)
    total_attempts = sum(job["attempts"] for job in jobs)
    assert total_attempts <= len(campaign) + 1, (
        f"{total_attempts} attempts for {len(campaign)} jobs: "
        "more than the killed worker's single held job was re-run"
    )
    assert all(job["attempts"] >= 1 for job in jobs)

    # The fleet healed: no worker cache still considers shard 1 dead.
    for cache in fleet.caches:
        cache.get(cache_key("poke", id(cache)))
        wait_for(lambda: not cache.client_for(fleet.shard_urls[1]).degraded, timeout=10)

    # And the queue agrees nothing is pending or stalled.
    stats = fleet.queue.stats()
    assert stats["depth"] == 0
    assert stats["done"] == len(campaign)
    assert stats["failed"] == 0
