#!/usr/bin/env python
"""Run the repro service layer from the command line (``make serve``).

Two subcommands, one per server (see ``docs/service.md``):

``cache``
    Serve a profile-cache tier to a fleet of planners::

        PYTHONPATH=src python tools/serve.py cache --cache-dir .cache/profiles
        # clients: ProcessingConfiguration(cache_urls=("http://host:8731",))

``redesign``
    Serve the full redesign loop (``POST /plans`` -> ranked
    alternatives): jobs go through the server's in-memory job queue,
    drained by ``--workers`` in-process planner workers sharing one
    cache tier (memory over disk with ``--cache-dir``, as a
    planner's)::

        PYTHONPATH=src python tools/serve.py redesign --workers 4 --cache-dir .cache/profiles

    With ``--queue PATH`` the job queue is that durable SQLite file
    instead and the server starts no workers: external
    ``tools/worker.py`` processes drain it (the fleet front-end role,
    without the bundled shards and workers of ``fleet``).

``fleet``
    Launch a whole scale-out topology in one process (see
    ``docs/fleet.md``): N shard cache servers, the durable job queue, M
    pull-based planner workers wired to a ring over the shards, and the
    redesign front-end over that queue::

        PYTHONPATH=src python tools/serve.py fleet --shards 4 --fleet-workers 4 \
            --queue .fleet/jobs.sqlite

    Extra capacity can join from other processes: ``tools/worker.py
    --queue <same file> --cache-urls <printed shard URLs>``.

All bind ``127.0.0.1`` by default and run until interrupted.  ``--host``
sets the *bind* address: ``0.0.0.0`` listens on every interface (the
printed URL substitutes a connectable address -- the wildcard is a
binding, not a destination).  ``--auth-token TOKEN`` requires clients to
present ``Authorization: Bearer TOKEN`` (``GET /health`` stays open for
load-balancer probes); without it the protocol is unauthenticated.
Either way the wire is plain HTTP -- the token gates access but does not
encrypt; put a TLS terminator in front to cross untrusted networks (see
``docs/service.md``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.cache import DiskProfileCache, ProfileCache, build_profile_cache  # noqa: E402
from repro.service import CacheServer, RedesignServer  # noqa: E402


def _server_backend(cache_dir: str | None, max_bytes: int | None):
    """A cache server's store: its hot document map is the memory front."""
    if cache_dir is None:
        return ProfileCache()
    return DiskProfileCache(cache_dir, max_bytes=max_bytes)


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: loopback; 0.0.0.0 = every interface)",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="require 'Authorization: Bearer TOKEN' on every request "
        "(GET /health excepted); clients set cache_auth_token / auth_token",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="back the store with a persistent DiskProfileCache rooted here, "
        "behind an in-memory front (default: in-memory only)",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="LRU size cap on the disk store (requires --cache-dir)",
    )


def _run_fleet(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``fleet`` subcommand: shards + queue + workers + front-end."""
    from repro.fleet import FleetWorker, JobQueue

    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.fleet_workers < 1:
        parser.error("--fleet-workers must be at least 1")

    shards = []
    for index in range(args.shards):
        port = 0 if args.shard_port_base == 0 else args.shard_port_base + index
        # One store per shard: the ring partitions the key space, so
        # shards must not share a directory.
        shard_dir = (
            None if args.cache_dir is None else str(Path(args.cache_dir) / f"shard{index}")
        )
        shard = CacheServer(
            _server_backend(shard_dir, args.max_bytes),
            host=args.host,
            port=port,
            auth_token=args.auth_token,
        )
        shard.start()
        shards.append(shard)
    shard_urls = tuple(shard.url for shard in shards)

    queue_path = Path(args.queue)
    queue_path.parent.mkdir(parents=True, exist_ok=True)
    queue = JobQueue(queue_path)
    workers = []
    for index in range(args.fleet_workers):
        cache = build_profile_cache(urls=shard_urls, auth_token=args.auth_token)
        worker = FleetWorker(queue, worker_id=f"worker-{index}", cache=cache)
        worker.start()
        workers.append(worker)

    front = RedesignServer(
        queue=queue, host=args.host, port=args.port, auth_token=args.auth_token
    )

    logger = logging.getLogger("repro.service.fleet")
    logger.info(
        "fleet topology: front-end %s, %d shard(s) [%s], tier=%s, "
        "queue=%s, %d in-process worker(s)",
        front.url,
        len(shard_urls),
        ", ".join(shard_urls),
        "disk" if args.cache_dir else "memory",
        queue_path,
        args.fleet_workers,
    )
    print(f"fleet front-end listening on {front.url}")
    for index, url in enumerate(shard_urls):
        print(f"  shard {index}: {url}")
    print(f"  queue: {queue_path} ({args.fleet_workers} in-process workers)")
    print(f"  metrics: {front.url}/metrics (dashboard: tools/obs.py)")
    print(f'  try: RedesignClient("{front.url}").plan(flow)')
    print(
        f"  scale out: PYTHONPATH=src python tools/worker.py --queue {queue_path} "
        f"--cache-urls {' '.join(shard_urls)}"
    )
    try:
        front.serve_forever()
    except KeyboardInterrupt:
        print("shutting down fleet")
    finally:
        front.stop()
        for worker in workers:
            worker.stop()
        for worker in workers:
            if worker.cache is not None:
                worker.cache.close()
        for shard in shards:
            shard.stop()
        queue.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="log every request")
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="root log level for the repro.* loggers "
        "(default: info, or debug with --verbose)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cache = commands.add_parser("cache", help="serve a shared profile-cache tier")
    cache.add_argument("--port", type=int, default=8731, help="TCP port (0 = ephemeral)")
    _add_backend_arguments(cache)
    cache.add_argument(
        "--eviction-interval",
        type=float,
        default=None,
        help="sweep the size cap on a background thread every N seconds "
        "instead of on every publish (requires --cache-dir and --max-bytes)",
    )
    cache.add_argument(
        "--max-hot-entries",
        type=int,
        default=8192,
        help="LRU bound on the in-memory hot map of ready-to-send profile "
        "documents (0 = unbounded)",
    )

    redesign = commands.add_parser("redesign", help="serve the redesign loop")
    redesign.add_argument("--port", type=int, default=8732, help="TCP port (0 = ephemeral)")
    redesign.add_argument(
        "--workers",
        type=int,
        default=2,
        help="in-process planner workers draining the server's job queue",
    )
    redesign.add_argument(
        "--queue",
        default=None,
        help="serve as a fleet front-end: enqueue plans into this durable "
        "SQLite job queue for external tools/worker.py processes instead of "
        "planning in-process (--workers is then unused)",
    )
    _add_backend_arguments(redesign)

    fleet = commands.add_parser(
        "fleet", help="launch shards + job queue + workers + front-end in one process"
    )
    fleet.add_argument("--port", type=int, default=8732, help="front-end TCP port (0 = ephemeral)")
    fleet.add_argument("--shards", type=int, default=2, help="number of shard cache servers")
    fleet.add_argument(
        "--shard-port-base",
        type=int,
        default=8741,
        help="shard i binds port base+i (0 = all ephemeral)",
    )
    fleet.add_argument(
        "--fleet-workers", type=int, default=2, help="number of in-process planner workers"
    )
    fleet.add_argument(
        "--queue",
        default=".fleet/jobs.sqlite",
        help="path of the durable SQLite job queue (created if missing)",
    )
    _add_backend_arguments(fleet)

    args = parser.parse_args(argv)
    if args.log_level is not None:
        level = getattr(logging, args.log_level.upper())
    else:
        level = logging.DEBUG if args.verbose else logging.INFO
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if args.max_bytes is not None and args.cache_dir is None:
        parser.error("--max-bytes requires --cache-dir")

    if args.host in ("0.0.0.0", "") and args.auth_token is None:
        logging.getLogger("repro.service").warning(
            "binding every interface (--host %s) without --auth-token: any "
            "host that can reach this port can read and write the store",
            args.host or '""',
        )

    if args.command == "fleet":
        return _run_fleet(args, parser)

    queue = None
    if args.command == "cache":
        if args.eviction_interval is not None and args.max_bytes is None:
            parser.error("--eviction-interval requires --max-bytes")
        server = CacheServer(
            _server_backend(args.cache_dir, args.max_bytes),
            host=args.host,
            port=args.port,
            auth_token=args.auth_token,
            max_hot_entries=args.max_hot_entries or None,
            eviction_interval=args.eviction_interval,
        )
        role = "profile-cache"
        hint = f'ProcessingConfiguration(cache_urls=("{server.url}",))'
    else:
        if args.queue is not None:
            from repro.fleet import JobQueue

            if args.cache_dir is not None:
                parser.error(
                    "--queue and --cache-dir are mutually exclusive: a fleet "
                    "front-end plans nothing, its workers own their cache tier "
                    "(see tools/worker.py)"
                )
            queue_path = Path(args.queue)
            queue_path.parent.mkdir(parents=True, exist_ok=True)
            queue = JobQueue(queue_path)
        server = RedesignServer(
            cache=build_profile_cache(cache_dir=args.cache_dir, max_bytes=args.max_bytes),
            workers=args.workers,
            queue=queue,
            host=args.host,
            port=args.port,
            auth_token=args.auth_token,
        )
        if queue is None:
            role = "redesign"
            hint = f'RedesignClient("{server.url}").plan(flow)'
        else:
            role = "fleet front-end"
            hint = f"drain with: PYTHONPATH=src python tools/worker.py --queue {queue_path}"

    bound = " (bound to every interface)" if args.host in ("0.0.0.0", "") else ""
    print(f"{role} service listening on {server.url}{bound}")
    print(f"  try: {hint}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        server.stop()
    finally:
        if queue is not None:
            queue.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
