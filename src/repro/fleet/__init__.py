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

The exports resolve lazily (a module-level ``__getattr__``): importing
one submodule -- say :mod:`repro.fleet.states` from the service
front-end -- loads neither the queue nor the workers.
"""

import importlib

#: Each export and the submodule that defines it.
_EXPORTS = {
    "DEFAULT_LEASE_TIMEOUT": "repro.fleet.queue",
    "DEFAULT_POLL_INTERVAL": "repro.fleet.worker",
    "DEFAULT_REPLICAS": "repro.fleet.ring",
    "FleetWorker": "repro.fleet.worker",
    "HashRing": "repro.fleet.ring",
    "JobQueue": "repro.fleet.queue",
    "LeasedJob": "repro.fleet.queue",
    "ShardedProfileCache": "repro.fleet.sharded",
    "run_worker": "repro.fleet.worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
