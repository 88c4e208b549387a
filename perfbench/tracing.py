"""Per-layer spans recorded around calls into the program's public functions.

The benchmark does not edit the program.  For the traced slices of a run
:meth:`Tracer.install` wraps each layer's public entry point -- class
attributes, module functions, or the methods of one cache instance --
and :meth:`Tracer.uninstall` restores the originals.  Spans nest per
thread: a span's *self* time is its duration minus the time its child
spans cover.  Everything is kept in memory and summarised once, by
:meth:`Tracer.layer_metrics`, when the run ends.

Layers and the public functions timed for them:

=====================  ==================================================
span                   wrapped callable
=====================  ==================================================
``plan``               ``Planner.plan``
``generate``           each ``next()`` on ``AlternativeGenerator.generate_iter``
``fingerprint``        ``QualityEstimator.cache_key``
``cache.lookup``       ``get`` / ``get_many`` of the planner's cache
``cache.store``        ``put`` / ``flush`` of the planner's cache
``simulate``           ``QualityEstimator.simulate``
``measures``           ``QualityEstimator.evaluate_uncached`` (self time)
``rank``               ``pareto_front_profiles`` as the planner calls it
``service.*``          ``RedesignClient.submit`` / ``wait`` / ``result_raw``
                       and ``result_from_dict`` as the client calls it
``wire``               ``PooledJSONClient.request_json``
=====================  ==================================================

``queue.wait`` is not a span: it is the gap between
``RedesignServer.submit`` returning a job id and a worker entering
``Planner.plan`` for that job.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

_MISSING = object()

#: Per-layer metrics reported by a traced run: name -> unit.
LAYER_UNITS = {
    "plan.seconds": "s",
    "plan.unattributed_seconds": "s",
    "generate.seconds": "s",
    "generate.candidates": "count",
    "generate.patterns_applied": "count",
    "generate.yield_ratio": "ratio",
    "fingerprint.seconds": "s",
    "fingerprint.calls": "count",
    "cache.lookup_seconds": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.store_seconds": "s",
    "cache.stores": "count",
    "simulate.seconds": "s",
    "simulate.flows": "count",
    "simulate.runs": "count",
    "measures.seconds": "s",
    "rank.seconds": "s",
    "rank.points": "count",
    "rank.skyline_size": "count",
    "service.submit_seconds": "s",
    "service.wait_seconds": "s",
    "service.polls": "count",
    "service.result_fetch_seconds": "s",
    "service.result_decode_seconds": "s",
    "service.result_bytes": "bytes",
    "queue.wait_seconds": "s",
    "wire.requests": "count",
    "wire.request_seconds": "s",
    "trace.coverage": "ratio",
    "trace.overhead_fraction": "ratio",
}


class Tracer:
    """Collects spans and counts from wrapped calls, from any thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._submitted: dict[str, float] = {}
        self._started: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._server = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self) -> list[float]:
        frame = [time.perf_counter(), 0.0]  # start, time covered by children
        self._stack().append(frame)
        return frame

    def _end(self, name: str, frame: list[float]) -> None:
        duration = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += duration
        with self._lock:
            self.seconds[name] += duration
            self.self_seconds[name] += duration - frame[1]
            self.calls[name] += 1

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def timed(
        self,
        name: str,
        function: Callable,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``function`` inside a span; ``after(args, result)`` runs outside it."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = self._begin()
            try:
                result = function(*args, **kwargs)
            finally:
                self._end(name, frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.perfbench_span = name  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def install(self, caches: Iterable[Any] = (), server: Any = None) -> None:
        """Wrap every layer's public functions, plus the given cache instances.

        Caches of planners built while installed are wrapped as they are
        built.  ``server`` (a ``RedesignServer``) is where queue wait is
        read from.
        """
        from repro.core import planner as planner_module
        from repro.core.alternatives import AlternativeGenerator
        from repro.core.planner import Planner
        from repro.quality.estimator import QualityEstimator
        from repro.service import client as client_module
        from repro.service.client import RedesignClient
        from repro.service.redesign_server import RedesignServer
        from repro.wire import PooledJSONClient

        self._server = server
        for cache in caches:
            self.instrument_cache(cache)

        def planner_init(original: Callable) -> Callable:
            @functools.wraps(original)
            def __init__(planner, *args, **kwargs):
                original(planner, *args, **kwargs)
                self.instrument_cache(planner.profile_cache)

            return __init__

        self._patch(Planner, "__init__", planner_init)
        self._patch(Planner, "plan", self._plan_wrapper)
        self._patch(AlternativeGenerator, "generate_iter", self._generation_wrapper)
        self._patch(
            QualityEstimator, "cache_key", lambda f: self.timed("fingerprint", f)
        )
        self._patch(
            QualityEstimator,
            "simulate",
            lambda f: self.timed(
                "simulate",
                f,
                lambda args, _: self.count(
                    "simulate.runs", args[0].settings.simulation_runs
                ),
            ),
        )
        self._patch(
            QualityEstimator, "evaluate_uncached", lambda f: self.timed("measures", f)
        )
        self._patch(
            planner_module,
            "pareto_front_profiles",
            lambda f: self.timed("rank", f, self._after_rank),
        )
        self._patch(RedesignClient, "submit", lambda f: self.timed("service.submit", f))
        self._patch(RedesignClient, "wait", lambda f: self.timed("service.wait", f))
        self._patch(RedesignClient, "status", lambda f: self.timed("service.poll", f))
        self._patch(
            RedesignClient, "result_raw", lambda f: self.timed("service.result_fetch", f)
        )
        self._patch(
            client_module,
            "result_from_dict",
            lambda f: self.timed("service.result_decode", f),
        )
        self._patch(
            RedesignServer,
            "submit",
            lambda f: self.timed("service.accept", f, self._after_accept),
        )
        self._patch(PooledJSONClient, "request_json", self._wire_wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()
        self._server = None

    def instrument_cache(self, cache: Any) -> None:
        """Wrap one cache instance's lookups and stores (once)."""
        if cache is None or hasattr(cache.__dict__.get("get_many"), "perfbench_span"):
            return
        self._patch(cache, "get", lambda f: self.timed("cache.lookup", f, self._after_get))
        self._patch(
            cache, "get_many", lambda f: self.timed("cache.lookup", f, self._after_get_many)
        )
        self._patch(
            cache,
            "put",
            lambda f: self.timed("cache.store", f, lambda *_: self.count("cache.stores")),
        )
        self._patch(cache, "flush", lambda f: self.timed("cache.store", f))

    # ------------------------------------------------------------------
    # Wrappers with more than a span
    # ------------------------------------------------------------------

    def _after_get(self, _args: tuple, result: Any) -> None:
        self.count("cache.lookups")
        self.count("cache.hits", result is not None)

    def _after_get_many(self, _args: tuple, results: list) -> None:
        self.count("cache.lookups", len(results))
        self.count("cache.hits", sum(1 for result in results if result is not None))

    def _after_rank(self, args: tuple, skyline: list) -> None:
        self.count("rank.points", len(args[0]))
        self.count("rank.skyline_size", len(skyline))

    def _after_accept(self, _args: tuple, response: dict) -> None:
        accepted = time.perf_counter()
        with self._lock:
            self._submitted[response["id"]] = accepted

    def _plan_wrapper(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def plan(planner, *args, **kwargs):
            server = self._server
            if server is not None:
                entered = time.perf_counter()
                for job in server.jobs_snapshot():
                    if job.planner is planner:
                        with self._lock:
                            self._started[job.job_id] = entered
                        break
            frame = self._begin()
            try:
                return original(planner, *args, **kwargs)
            finally:
                self._end("plan", frame)

        return plan

    def _generation_wrapper(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def generate_iter(generator, flow):
            inner = original(generator, flow)
            try:
                while True:
                    frame = self._begin()
                    try:
                        alternative = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._end("generate", frame)
                    yield alternative
            finally:
                inner.close()
                stats = generator.last_stats
                self.count("generate.candidates", stats.yielded)
                self.count("generate.combinations_tried", stats.combinations_tried)
                self.count("generate.patterns_applied", stats.patterns_applied)

        return generate_iter

    def _wire_wrapper(self, original: Callable) -> Callable:
        @functools.wraps(original)
        def request_json(client, method, path, *args, **kwargs):
            received = client.raw_bytes_received
            frame = self._begin()
            try:
                return original(client, method, path, *args, **kwargs)
            finally:
                self._end("wire", frame)
                if path.endswith("/result"):
                    self.count("service.result_bytes", client.raw_bytes_received - received)

        return request_json

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def layer_metrics(self, untraced_rate: float, traced_rate: float) -> dict[str, float]:
        """Every metric of :data:`LAYER_UNITS`; seconds and counts per plan."""
        plans = self.calls["plan"]
        jobs = self.calls["service.submit"]

        def per_plan(value: float) -> float:
            return value / plans if plans else 0.0

        def per_job(value: float) -> float:
            return value / jobs if jobs else 0.0

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        waits = [
            max(0.0, self._started[job] - submitted)
            for job, submitted in self._submitted.items()
            if job in self._started
        ]
        counts, seconds = self.counts, self.seconds
        return {
            "plan.seconds": per_plan(seconds["plan"]),
            "plan.unattributed_seconds": per_plan(self.self_seconds["plan"]),
            "generate.seconds": per_plan(self.self_seconds["generate"]),
            "generate.candidates": per_plan(counts["generate.candidates"]),
            "generate.patterns_applied": per_plan(counts["generate.patterns_applied"]),
            "generate.yield_ratio": ratio(
                counts["generate.candidates"], counts["generate.combinations_tried"]
            ),
            "fingerprint.seconds": per_plan(self.self_seconds["fingerprint"]),
            "fingerprint.calls": per_plan(self.calls["fingerprint"]),
            "cache.lookup_seconds": per_plan(seconds["cache.lookup"]),
            "cache.lookups": per_plan(counts["cache.lookups"]),
            "cache.hit_ratio": ratio(counts["cache.hits"], counts["cache.lookups"]),
            "cache.store_seconds": per_plan(seconds["cache.store"]),
            "cache.stores": per_plan(counts["cache.stores"]),
            "simulate.seconds": per_plan(self.self_seconds["simulate"]),
            "simulate.flows": per_plan(self.calls["simulate"]),
            "simulate.runs": per_plan(counts["simulate.runs"]),
            "measures.seconds": per_plan(self.self_seconds["measures"]),
            "rank.seconds": per_plan(self.self_seconds["rank"]),
            "rank.points": per_plan(counts["rank.points"]),
            "rank.skyline_size": per_plan(counts["rank.skyline_size"]),
            "service.submit_seconds": per_job(seconds["service.submit"]),
            "service.wait_seconds": per_job(seconds["service.wait"]),
            "service.polls": per_job(self.calls["service.poll"]),
            "service.result_fetch_seconds": per_job(seconds["service.result_fetch"]),
            "service.result_decode_seconds": per_job(seconds["service.result_decode"]),
            "service.result_bytes": per_job(counts["service.result_bytes"]),
            "queue.wait_seconds": sum(waits) / len(waits) if waits else 0.0,
            "wire.requests": per_plan(self.calls["wire"]),
            "wire.request_seconds": per_plan(seconds["wire"]),
            "trace.coverage": ratio(
                seconds["plan"] - self.self_seconds["plan"], seconds["plan"]
            ),
            "trace.overhead_fraction": 1.0 - ratio(traced_rate, untraced_rate),
        }
