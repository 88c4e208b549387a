"""Scale-out for the redesign loop: sharded caching + a worker fleet.

Two independent pieces that compose into a fleet (``docs/fleet.md``):

* :class:`HashRing` / :class:`ShardedProfileCache` -- client-side
  consistent-hash routing of profile digests across N
  :class:`~repro.service.CacheServer` shards
  (``cache_urls=...``), degrading and
  recovering per shard.
* :class:`JobQueue` / :class:`FleetWorker` -- a SQLite-backed job
  queue with a lease/heartbeat/ack protocol, drained by pull-based
  planner workers, fronted by a :class:`~repro.service.RedesignServer`.
  The server's default is a private in-memory queue drained by its own
  worker threads; a durable queue file is drained by worker processes
  (``tools/worker.py``).
"""

from repro.fleet.queue import DEFAULT_LEASE_TIMEOUT, JobQueue, LeasedJob
from repro.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.fleet.sharded import ShardedProfileCache
from repro.fleet.worker import DEFAULT_POLL_INTERVAL, FleetWorker, run_worker

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_POLL_INTERVAL",
    "DEFAULT_REPLICAS",
    "FleetWorker",
    "HashRing",
    "JobQueue",
    "LeasedJob",
    "ShardedProfileCache",
    "run_worker",
]
