"""Sharded cache fleet: concurrent clients vs. shard count.

The fleet subsystem's claim is about *aggregate serving capacity*: one
cache shard is one machine with one NIC, one disk and one interpreter
-- a fixed budget of bytes per second -- so a fleet of warm planners
hammering it queues on that budget no matter how patiently each client
waits.  ``cache_urls`` with N URLs splits the store across N
:class:`~repro.service.CacheServer` shards by consistent hashing, so
the same fleet's traffic drains through N independent channels -- and a
single client's batched ``get_many`` windows fan out N ways too.

This benchmark measures exactly that grid on the TPC-H refresh
workload, with loopback made honest by a proxy: every shard sits
behind a :class:`ShardLinkProxy` whose per-request service time and
bandwidth throttle are **shared by all connections to that shard**
(the defining property of a saturated machine: the proxy models a
server, not a link).  For every shard
count (1 and 4) the harness boots that many shard channels, warms them
with one solo campaign, then times fleets of concurrent forked client
processes (1 and 4; 16 with ``--slow``) planning against the warm
fleet.  Every cell must produce byte-identical alternatives, profiles
and skylines -- the tier-equivalence guarantee extends over the ring.

The headline number is the busy-fleet column: wall-clock of the
largest client fleet against 1 shard vs. against 4 shards.

Hit rates and served-request latency are read from each shard's own
``GET /metrics`` endpoint (scraped on the direct server URL, bypassing
the throttled channel so observation never draws on the modelled
capacity), not from client-side objects: the benchmark observes the
fleet exactly the way an operator's dashboard does.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_fleet.py

or through pytest (``pytest benchmarks/bench_fleet.py -s``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import socket
import sys
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.cache import ProfileCache  # noqa: E402
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


def _fleet_hit_counts(urls: list[str]) -> tuple[int, int]:
    """``(hits, misses)`` summed over every shard's ``/metrics`` counters."""
    hits = misses = 0
    for url in urls:
        counters = scrape_metrics(url).get("metrics", {}).get("counters", {})
        hits += counters.get("cache.hits", 0)
        misses += counters.get("cache.misses", 0)
    return hits, misses

DEFAULT_BANDWIDTH = 40 * 1024  # bytes/second of spare serving capacity per shard
DEFAULT_SERVICE_TIME = 0.005  # seconds of shard capacity per served request
DEFAULT_CONNECT_LATENCY = 0.005


class _SharedThrottle:
    """A serving-time budget shared by every user of one shard's channel.

    Serializes cost *accounting* under a lock but sleeps outside it, so
    concurrent requests queue exactly as they would on a saturated
    machine: each pays for its own work plus whatever backlog the
    channel already owes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free_at = 0.0

    def occupy(self, seconds: float) -> None:
        with self._lock:
            now = time.monotonic()
            start = max(now, self._free_at)
            self._free_at = start + seconds
            wait = self._free_at - now
        if wait > 0:
            time.sleep(wait)


class ShardLinkProxy:
    """A TCP proxy modelling one shard machine's finite serving capacity.

    Every accepted connection pays ``connect_latency`` before the
    upstream dial; every request chunk draws ``service_time`` seconds
    (parse, lookup, encode -- the fixed cost a loaded server pays per
    round-trip) and every relayed chunk ``len/bandwidth`` seconds from
    one budget **shared by all connections to this shard**.  That is
    the defining property of a saturated machine: it models a server,
    not a link.  Four busy clients on one shard therefore share one channel; four
    shards give the fleet four.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        bandwidth: float = DEFAULT_BANDWIDTH,
        service_time: float = DEFAULT_SERVICE_TIME,
        connect_latency: float = DEFAULT_CONNECT_LATENCY,
    ) -> None:
        self.target = (target_host, target_port)
        self.bandwidth = bandwidth
        self.service_time = service_time
        self.connect_latency = connect_latency
        self.throttle = _SharedThrottle()
        self.connections = 0
        self.requests = 0
        self.bytes_relayed = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._running = False
        self._thread: threading.Thread | None = None
        self._open: set[socket.socket] = set()
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self) -> "ShardLinkProxy":
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            sockets, self._open = set(self._open), set()
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(client,), daemon=True).start()

    def _serve(self, client: socket.socket) -> None:
        time.sleep(self.connect_latency)
        upstream = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            upstream.connect(self.target)
            for sock in (client, upstream):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            client.close()
            return
        with self._lock:
            self._open.update((client, upstream))
        threading.Thread(
            target=self._pump, args=(client, upstream, True), daemon=True
        ).start()
        threading.Thread(
            target=self._pump, args=(upstream, client, False), daemon=True
        ).start()

    def _pump(
        self, source: socket.socket, sink: socket.socket, request_bound: bool
    ) -> None:
        try:
            while True:
                data = source.recv(65536)
                if not data:
                    break
                self.bytes_relayed += len(data)
                cost = len(data) / self.bandwidth
                if request_bound:
                    # One client-bound chunk is (to a very good
                    # approximation on this wire) one request: lookups
                    # are small digest lists, and the only multi-chunk
                    # bodies -- the compressed end-of-campaign /put --
                    # happen in the untimed warm run.
                    self.requests += 1
                    cost += self.service_time
                self.throttle.occupy(cost)
                sink.sendall(data)
        except OSError:
            pass
        finally:
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class _ShardFleet:
    """``count`` in-memory CacheServers, each behind its own channel proxy."""

    def __init__(
        self,
        count: int,
        bandwidth: float,
        service_time: float,
        connect_latency: float,
    ):
        self.count = count
        self.bandwidth = bandwidth
        self.service_time = service_time
        self.connect_latency = connect_latency
        self.servers: list[CacheServer] = []
        self.proxies: list[ShardLinkProxy] = []

    @property
    def urls(self) -> list[str]:
        return [proxy.url for proxy in self.proxies]

    @property
    def direct_urls(self) -> list[str]:
        """Shard server URLs bypassing the throttled channel (for scrapes)."""
        return [server.url for server in self.servers]

    def __enter__(self) -> "_ShardFleet":
        for _ in range(self.count):
            server = CacheServer(ProfileCache()).start()
            proxy = ShardLinkProxy(
                server.host,
                server.port,
                self.bandwidth,
                self.service_time,
                self.connect_latency,
            ).start()
            self.servers.append(server)
            self.proxies.append(proxy)
        return self

    def __exit__(self, *exc_info) -> None:
        for proxy in self.proxies:
            proxy.stop()
        for server in self.servers:
            server.stop()
        self.servers, self.proxies = [], []


# ---------------------------------------------------------------------------
# Client fleet: the same forked-planner pattern as bench_service
# ---------------------------------------------------------------------------


def _run_fleet_client(index: int, flow, configuration, queue) -> None:
    """One fleet member: plan once, report (index, seconds, fingerprint)."""
    planner = Planner(configuration=configuration)
    t0 = time.perf_counter()
    result = planner.plan(flow)
    seconds = time.perf_counter() - t0
    if planner.profile_cache is not None:
        planner.profile_cache.close()
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


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------


def run_fleet_bench(
    flow=None,
    *,
    scale: float = 0.05,
    pattern_budget: int = 2,
    max_points_per_pattern: int = 2,
    simulation_runs: int = 5,
    max_alternatives: int = 80,
    eval_batch_size: int = 8,
    bandwidth: float = DEFAULT_BANDWIDTH,
    service_time: float = DEFAULT_SERVICE_TIME,
    connect_latency: float = DEFAULT_CONNECT_LATENCY,
    shard_counts: tuple[int, ...] = (1, 4),
    client_counts: tuple[int, ...] = (1, 4),
) -> dict:
    """Time every (shards, clients) cell and return a comparison report.

    ``eval_batch_size`` deliberately stays small so the campaign's reads arrive as a stream of bounded ``get_many``
    windows -- the regime a real fleet with bounded memory lives in.
    The headline ``speedup_sharded_vs_single`` divides the busiest
    fleet's wall-clock against ``min(shard_counts)`` shards by the same
    fleet's wall-clock against ``max(shard_counts)`` shards.
    """
    shard_counts = tuple(sorted(set(shard_counts)))
    client_counts = tuple(sorted(set(client_counts)))
    if len(shard_counts) < 2:
        raise ValueError("shard_counts needs at least two entries to compare")
    if flow is None:
        flow = tpch_refresh_flow(scale=scale)
    base = dict(
        pattern_budget=pattern_budget,
        max_points_per_pattern=max_points_per_pattern,
        simulation_runs=simulation_runs,
        max_alternatives=max_alternatives,
        eval_batch_size=eval_batch_size,
    )

    fingerprints: set = set()
    grid: list[dict] = []
    warm_seconds: dict[int, float] = {}
    shard_bytes: dict[int, list[int]] = {}
    alternatives = 0

    shard_requests: dict[int, list[int]] = {}
    shard_request_seconds: dict[int, list[dict]] = {}
    for shards in shard_counts:
        with _ShardFleet(shards, bandwidth, service_time, connect_latency) as servers:
            configuration = ProcessingConfiguration(**base, cache_urls=tuple(servers.urls))
            # One solo run pays the simulation campaign and publishes
            # every profile across the ring; all measured cells are warm.
            warm_planner = Planner(configuration=configuration)
            t0 = time.perf_counter()
            warm_result = warm_planner.plan(flow)
            warm_seconds[shards] = time.perf_counter() - t0
            warm_planner.profile_cache.close()
            fingerprints.add(warm_result.fingerprint())
            alternatives = len(warm_result.alternatives)

            for clients in client_counts:
                # The cell's hit rate is the shards' own view of it:
                # counter deltas between two /metrics scrapes bracketing
                # the timed fleet (direct URLs -- the scrape must not
                # draw on the modelled channel capacity).
                before = _fleet_hit_counts(servers.direct_urls)
                cell = _run_fleet(flow, configuration, clients)
                after = _fleet_hit_counts(servers.direct_urls)
                fingerprints.update(cell["fingerprints"])
                hits = after[0] - before[0]
                misses = after[1] - before[1]
                grid.append(
                    {
                        "shards": shards,
                        "clients": clients,
                        "wall_seconds": cell["wall_seconds"],
                        "client_seconds": cell["client_seconds"],
                        "fleet_hit_rate": hits / (hits + misses)
                        if hits + misses
                        else 0.0,
                    }
                )
            shard_bytes[shards] = [proxy.bytes_relayed for proxy in servers.proxies]
            shard_requests[shards] = [proxy.requests for proxy in servers.proxies]
            shard_request_seconds[shards] = [
                scrape_metrics(url)
                .get("metrics", {})
                .get("histograms", {})
                .get("service.request_seconds", {})
                for url in servers.direct_urls
            ]

    def _wall(shards: int, clients: int) -> float:
        [cell] = [c for c in grid if c["shards"] == shards and c["clients"] == clients]
        return cell["wall_seconds"]

    low, high = shard_counts[0], shard_counts[-1]
    busiest = client_counts[-1]
    return {
        "workload": flow.name,
        "shard_counts": list(shard_counts),
        "client_counts": list(client_counts),
        "pattern_budget": pattern_budget,
        "simulation_runs": simulation_runs,
        "eval_batch_size": eval_batch_size,
        "bandwidth_bytes_per_s": bandwidth,
        "service_time_ms": service_time * 1000.0,
        "connect_latency_ms": connect_latency * 1000.0,
        "alternatives": alternatives,
        "warm_seconds": {str(shards): seconds for shards, seconds in warm_seconds.items()},
        "shard_bytes": {
            str(shards): counts for shards, counts in shard_bytes.items()
        },
        "shard_requests": {
            str(shards): counts for shards, counts in shard_requests.items()
        },
        "shard_request_seconds": {
            str(shards): stats for shards, stats in shard_request_seconds.items()
        },
        "grid": grid,
        "busiest_clients": busiest,
        "speedup_sharded_vs_single": _wall(low, busiest) / _wall(high, busiest),
        "speedup_single_client": _wall(low, client_counts[0])
        / _wall(high, client_counts[0]),
        "identical_results": len(fingerprints) == 1,
    }


def _render_report(report: dict) -> str:
    bandwidth = report["bandwidth_bytes_per_s"]
    lines = [
        f"workload: {report['workload']}  "
        f"({report['alternatives']} alternatives, budget {report['pattern_budget']}, "
        f"{report['simulation_runs']} simulation runs, "
        f"eval window {report['eval_batch_size']})",
        f"shard channel: {report['service_time_ms']:.0f} ms/request + "
        f"{bandwidth / 1024:.0f} KB/s, shared per shard; "
        f"{report['connect_latency_ms']:.0f} ms per connection",
        "shards x clients -> fleet wall-clock (warm):",
    ]
    for cell in report["grid"]:
        lines.append(
            f"  {cell['shards']} shard(s) x {cell['clients']:2d} client(s): "
            f"{cell['wall_seconds']:8.3f} s wall   "
            f"hit rate (from /metrics): {cell['fleet_hit_rate'] * 100.0:.0f}%"
        )
    for shards, stats in sorted(
        report["shard_request_seconds"].items(), key=lambda item: int(item[0])
    ):
        p99s = ", ".join(
            f"{shard.get('p99', 0.0) * 1000.0:.1f} ms" for shard in stats
        )
        lines.append(f"  {shards} shard(s) served-request p99: {p99s}")
    lines.append(
        f"busy fleet ({report['busiest_clients']} clients) sharded vs single: "
        f"{report['speedup_sharded_vs_single']:.2f}x wall   "
        f"single client: {report['speedup_single_client']:.2f}x   "
        f"identical results: {report['identical_results']}"
    )
    return "\n".join(lines)


def test_four_shards_beat_one_shard_for_a_busy_fleet():
    """4 clients against 4 shards must beat the same 4 against 1, >= 1.5x."""
    report = run_fleet_bench()
    print()
    print("=" * 78)
    print("ARTIFACT: sharded cache fleet, clients x shards grid (TPC-H)")
    print("=" * 78)
    print(_render_report(report))
    assert report["identical_results"], "the sharded tier changed the planning results"
    assert report["speedup_sharded_vs_single"] >= 1.5, (
        f"sharded speedup {report['speedup_sharded_vs_single']:.2f}x below the 1.5x bar"
    )
    # every measured cell is warm, as observed by the shards themselves
    assert all(cell["fleet_hit_rate"] == 1.0 for cell in report["grid"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--pattern-budget", type=int, default=2)
    parser.add_argument("--max-points-per-pattern", type=int, default=2)
    parser.add_argument("--simulation-runs", type=int, default=5)
    parser.add_argument("--max-alternatives", type=int, default=80)
    parser.add_argument("--eval-batch-size", type=int, default=8)
    parser.add_argument(
        "--bandwidth",
        type=float,
        default=DEFAULT_BANDWIDTH,
        help="per-shard channel throttle in bytes/second",
    )
    parser.add_argument(
        "--service-time",
        type=float,
        default=DEFAULT_SERVICE_TIME,
        help="seconds of shared shard capacity per served request",
    )
    parser.add_argument(
        "--connect-latency",
        type=float,
        default=DEFAULT_CONNECT_LATENCY,
        help="seconds per new connection",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 4], help="shard counts to grid over"
    )
    parser.add_argument(
        "--clients", type=int, nargs="+", default=[1, 4], help="client counts to grid over"
    )
    parser.add_argument("--slow", action="store_true", help="extend the client axis to 16")
    parser.add_argument("--json", action="store_true", help="emit the raw report as JSON")
    args = parser.parse_args(argv)
    clients = list(args.clients) + ([16] if args.slow else [])
    report = run_fleet_bench(
        scale=args.scale,
        pattern_budget=args.pattern_budget,
        max_points_per_pattern=args.max_points_per_pattern,
        simulation_runs=args.simulation_runs,
        max_alternatives=args.max_alternatives,
        eval_batch_size=args.eval_batch_size,
        bandwidth=args.bandwidth,
        service_time=args.service_time,
        connect_latency=args.connect_latency,
        shard_counts=tuple(args.shards),
        client_counts=tuple(clients),
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
