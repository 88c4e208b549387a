#!/usr/bin/env python
"""Run one redesign fleet worker process (``make worker``).

A worker drains the durable job queue that a fleet redesign
front-end (``tools/serve.py redesign --queue ...`` or the bundled
``tools/serve.py fleet``) fills::

    PYTHONPATH=src python tools/worker.py --queue .fleet/jobs.sqlite \
        --cache-urls http://shard0:8731 http://shard1:8731

Start as many as the hardware allows -- workers coordinate purely
through the queue's lease protocol (see ``docs/fleet.md``), so there is
nothing to configure between them.  Restarting a killed worker under
the same ``--worker-id`` is the crash-recovery story: the queue bumps
its restart counter, any job the dead incarnation held is re-leased
automatically once its lease expires, and the fresh process just keeps
draining.

``--cache-urls`` wires every planning session to a ring over one or
more cache servers; without it the worker plans cold.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.cache import build_profile_cache  # noqa: E402
from repro.fleet import DEFAULT_LEASE_TIMEOUT, DEFAULT_POLL_INTERVAL, run_worker  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--queue", required=True, help="path of the fleet's SQLite job-queue file"
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable name in the queue's lease/registry tables (default: random; "
        "reuse a name to restart a crashed worker)",
    )
    parser.add_argument(
        "--cache-urls",
        nargs="+",
        default=None,
        metavar="URL",
        help="cache-server URLs (one or more): plan against a ring over them",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="bearer token of authenticated cache servers",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=DEFAULT_POLL_INTERVAL,
        help="idle sleep between lease attempts, seconds",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        help="lease validity requested per job, seconds (heartbeats extend it)",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="root log level for the repro.* loggers "
        "(default: info, or debug with --verbose)",
    )
    args = parser.parse_args(argv)
    if args.log_level is not None:
        level = getattr(logging, args.log_level.upper())
    else:
        level = logging.DEBUG if args.verbose else logging.INFO
    logging.basicConfig(
        level=level,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )

    def cache_factory():
        if args.cache_urls:
            return build_profile_cache(urls=tuple(args.cache_urls), auth_token=args.auth_token)
        return None

    try:
        run_worker(
            args.queue,
            worker_id=args.worker_id,
            cache_factory=cache_factory,
            poll_interval=args.poll_interval,
            lease_timeout=args.lease_timeout,
        )
    except KeyboardInterrupt:
        print("worker shutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
