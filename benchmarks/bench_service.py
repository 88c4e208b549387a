"""Fleet-shared cache service: N concurrent clients vs. N cold solo runs.

The service subsystem's claim is about *aggregate* throughput: once one
client has paid for the simulation campaign, every other client sharing
the cache server gets the profiles for the price of an HTTP round-trip
-- no common filesystem required.  This benchmark measures that on the
TPC-H refresh workload with two arms:

* **solo** -- ``clients`` concurrent *processes* (the fleet), each an
  isolated planner with its own cold in-memory cache: the status quo
  for a fleet without the service, every machine pays the full
  simulation campaign.
* **service** -- the same fleet of ``clients`` concurrent processes,
  but every planner uses ``cache_urls`` with the URL of one
  :class:`~repro.service.CacheServer` (fronting a disk store) that a
  single run warmed up first.

Both arms are timed wall-to-wall over the whole concurrent batch, so
the reported speedup is exactly what a fleet operator sees; the sum of
per-client times (the aggregate *compute* saved) is reported alongside.
Every arm must produce byte-identical alternatives, profiles and
skylines -- the tier-equivalence guarantee extends over the network.

Hit rates and request latency are read from the server's own ``GET
/metrics`` endpoint (the same snapshot ``tools/obs.py`` renders), not
from client-side objects: the benchmark observes the fleet exactly the
way an operator's dashboard does.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_service.py

or through pytest (``pytest benchmarks/bench_service.py -s``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.cache import DiskProfileCache  # noqa: E402
from repro.core import Planner, ProcessingConfiguration  # noqa: E402
from repro.service import CacheServer  # noqa: E402
from repro.wire import PooledJSONClient  # noqa: E402
from repro.workloads import tpch_refresh_flow  # noqa: E402


def scrape_metrics(url: str, timeout: float = 10.0) -> dict:
    """One ``GET /metrics`` payload from a live server."""
    client = PooledJSONClient(url, timeout)
    try:
        return client.request_json("GET", "/metrics")
    finally:
        client.close()


def hit_counts(payload: dict) -> tuple[int, int]:
    """``(cache.hits, cache.misses)`` counters of one ``/metrics`` payload."""
    counters = payload.get("metrics", {}).get("counters", {})
    return counters.get("cache.hits", 0), counters.get("cache.misses", 0)


def hit_rate_between(before: dict, after: dict) -> float:
    """The server-observed hit rate of the lookups between two scrapes."""
    hits = hit_counts(after)[0] - hit_counts(before)[0]
    misses = hit_counts(after)[1] - hit_counts(before)[1]
    return hits / (hits + misses) if hits + misses else 0.0


def _run_fleet_client(index: int, flow, configuration, queue) -> None:
    """One fleet member: plan once, report (index, seconds, fingerprint).

    Runs in a forked child process so the fleet members genuinely
    execute in parallel (separate interpreters, like separate machines);
    falls back to threads on platforms without ``fork``.
    """
    planner = Planner(configuration=configuration)
    t0 = time.perf_counter()
    result = planner.plan(flow)
    seconds = time.perf_counter() - t0
    queue.put((index, seconds, result.fingerprint()))


def _run_fleet(flow, configuration, clients: int) -> dict:
    """Run ``clients`` concurrent planners; wall-clock + per-client details."""
    try:
        ctx = multiprocessing.get_context("fork")
        make = lambda index, queue: ctx.Process(  # noqa: E731
            target=_run_fleet_client, args=(index, flow, configuration, queue)
        )
        queue = ctx.SimpleQueue()
    except ValueError:  # pragma: no cover - non-fork platform fallback
        import queue as queue_module

        queue = queue_module.SimpleQueue()
        make = lambda index, queue=queue: threading.Thread(  # noqa: E731
            target=_run_fleet_client, args=(index, flow, configuration, queue)
        )
    members = [make(index, queue) for index in range(clients)]
    t0 = time.perf_counter()
    for member in members:
        member.start()
    collected = [queue.get() for _ in range(clients)]
    wall = time.perf_counter() - t0
    for member in members:
        member.join()
    collected.sort()
    return {
        "wall_seconds": wall,
        "client_seconds": [seconds for _, seconds, _ in collected],
        "fingerprints": [fingerprint for _, _, fingerprint in collected],
    }


def run_service_bench(
    flow=None,
    *,
    scale: float = 0.05,
    pattern_budget: int = 2,
    max_points_per_pattern: int = 2,
    simulation_runs: int = 5,
    max_alternatives: int = 80,
    clients: int = 4,
    cache_dir: str | None = None,
) -> dict:
    """Time both fleet arms and return a comparison report.

    ``cache_dir`` defaults to a throwaway temporary directory (removed
    afterwards); pass an explicit one to inspect the server's store.
    """
    if clients < 2:
        raise ValueError("clients must be at least 2 (the benchmark is about sharing)")
    if flow is None:
        flow = tpch_refresh_flow(scale=scale)
    base = dict(
        pattern_budget=pattern_budget,
        max_points_per_pattern=max_points_per_pattern,
        simulation_runs=simulation_runs,
        max_alternatives=max_alternatives,
    )
    owns_dir = cache_dir is None
    cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-service-bench-")
    fingerprints: set[tuple] = set()

    try:
        # --- solo arm: a fleet of isolated cold planners ---------------
        solo = _run_fleet(flow, ProcessingConfiguration(**base), clients)
        fingerprints.update(solo["fingerprints"])

        # --- service arm: the same fleet sharing one warm cache server -
        with CacheServer(DiskProfileCache(cache_dir)) as server:
            http = ProcessingConfiguration(**base, cache_urls=(server.url,))
            t0 = time.perf_counter()
            warm_result = Planner(configuration=http).plan(flow)
            warm_seconds = time.perf_counter() - t0
            fingerprints.add(warm_result.fingerprint())

            # Hit rate and latency come from the server's own /metrics
            # (what an operator's dashboard sees), not client internals.
            before = scrape_metrics(server.url)
            service = _run_fleet(flow, http, clients)
            after = scrape_metrics(server.url)
            fingerprints.update(service["fingerprints"])
            fleet_hit_rate = hit_rate_between(before, after)
            histograms = after.get("metrics", {}).get("histograms", {})
            request_seconds = histograms.get("service.request_seconds", {})
            server_golden = after.get("golden", {})
            server_entries = after.get("entries", 0)

        return {
            "workload": flow.name,
            "clients": clients,
            "pattern_budget": pattern_budget,
            "simulation_runs": simulation_runs,
            "alternatives": len(warm_result.alternatives),
            "solo_seconds": solo["client_seconds"],
            "solo_seconds_total": sum(solo["client_seconds"]),
            "solo_seconds_wall": solo["wall_seconds"],
            "warm_run_seconds": warm_seconds,
            "service_seconds": service["client_seconds"],
            "service_seconds_total": sum(service["client_seconds"]),
            "service_seconds_wall": service["wall_seconds"],
            "speedup_service_vs_solo": solo["wall_seconds"] / service["wall_seconds"],
            "compute_saved_vs_solo": sum(solo["client_seconds"])
            / max(sum(service["client_seconds"]), 1e-9),
            "fleet_hit_rate": fleet_hit_rate,
            "server_golden": server_golden,
            "request_seconds": request_seconds,
            "server_entries": server_entries,
            "identical_results": len(fingerprints) == 1,
        }
    finally:
        if owns_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _render_report(report: dict) -> str:
    clients = report["clients"]
    lines = [
        f"workload: {report['workload']}  "
        f"({report['alternatives']} alternatives, budget {report['pattern_budget']}, "
        f"{report['simulation_runs']} simulation runs, {clients} concurrent clients)",
        f"solo fleet (cold, isolated):    {report['solo_seconds_wall']:8.3f} s wall "
        f"({report['solo_seconds_total']:.3f} s summed compute)",
        f"service fleet (shared, warm):   {report['service_seconds_wall']:8.3f} s wall "
        f"({report['service_seconds_total']:.3f} s summed compute)",
        f"aggregate speedup service vs solo: {report['speedup_service_vs_solo']:.2f}x wall, "
        f"{report['compute_saved_vs_solo']:.2f}x compute   "
        f"identical results: {report['identical_results']}",
        f"from /metrics: fleet hit rate {report['fleet_hit_rate'] * 100.0:.0f}%   "
        f"server: {report['server_entries']} entries, request latency "
        f"p50 {report['request_seconds'].get('p50', 0.0) * 1000.0:.1f} ms / "
        f"p99 {report['request_seconds'].get('p99', 0.0) * 1000.0:.1f} ms "
        f"over {report['request_seconds'].get('count', 0)} requests",
    ]
    return "\n".join(lines)


def test_shared_cache_server_beats_cold_solo_runs():
    """4 warm concurrent clients must beat 4 cold solo runs >= 1.5x, identically."""
    report = run_service_bench()
    print()
    print("=" * 78)
    print("ARTIFACT: fleet-shared cache service, solo vs service arms (TPC-H)")
    print("=" * 78)
    print(_render_report(report))
    assert report["identical_results"], "the network tier changed the planning results"
    assert report["speedup_service_vs_solo"] >= 1.5, (
        f"service speedup {report['speedup_service_vs_solo']:.2f}x below the 1.5x bar"
    )
    # the warm fleet is served entirely by the server (observed via /metrics)
    assert report["fleet_hit_rate"] == 1.0
    assert report["request_seconds"].get("count", 0) > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--pattern-budget", type=int, default=2)
    parser.add_argument("--max-points-per-pattern", type=int, default=2)
    parser.add_argument("--simulation-runs", type=int, default=5)
    parser.add_argument("--max-alternatives", type=int, default=80)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--cache-dir", default=None, help="persist the server store here (kept)")
    parser.add_argument("--json", action="store_true", help="emit the raw report as JSON")
    args = parser.parse_args(argv)
    report = run_service_bench(
        scale=args.scale,
        pattern_budget=args.pattern_budget,
        max_points_per_pattern=args.max_points_per_pattern,
        simulation_runs=args.simulation_runs,
        max_alternatives=args.max_alternatives,
        clients=args.clients,
        cache_dir=args.cache_dir,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
