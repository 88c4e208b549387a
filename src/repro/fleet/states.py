"""Job states of the fleet's :class:`~repro.fleet.queue.JobQueue`.

A module of its own, with no imports, so that the service front-end and
its client can test a job's state without loading the queue (SQLite)
or the planner workers.
"""

#: Job states.  ``queued`` and (expired) ``leased`` are leasable;
#: ``done`` and ``failed`` are terminal.
TERMINAL_STATES = ("done", "failed")
