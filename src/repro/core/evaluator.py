"""Concurrent, streaming evaluation of alternative flows.

The processing and analysis of the alternative process designs is a
process-intensive task, mainly due to the large number of alternative
flows that have to be concurrently evaluated; the paper offloads it to
Amazon EC2 elastic infrastructures running in the background.  This
reproduction evaluates sequentially with one worker and substitutes a
local process pool (:class:`concurrent.futures.ProcessPoolExecutor`) for
more -- threads would buy nothing, since the simulator is pure Python and
holds the GIL -- and adds three scaling levers on top:

* **Streaming** -- :meth:`ParallelEvaluator.evaluate_stream` consumes a
  *generator* of alternatives with a bounded number of in-flight
  submissions, so Pattern Application (generation) and Measures
  Estimation overlap instead of running as two sequential barriers.
  Results are yielded in input order as soon as their turn completes.
* **Memoization** -- when the estimator carries a cache backend (any
  :mod:`repro.cache` tier), the evaluator performs the cache lookups in
  the *parent* process before submitting work, and inserts freshly
  computed profiles back afterwards.  This keeps the cache effective
  even with the process pool and counts every alternative exactly
  once in the hit/miss statistics.
* **Per-worker estimators** -- instead of pickling the
  estimator into every task, the process pool ships it *once per worker*
  through the executor's ``initializer`` hook; tasks then carry only the
  alternatives being evaluated, grouped into small contiguous *chunks*
  so each worker resolves its read-through cache lookups in a single
  :meth:`~repro.cache.CacheBackend.get_many` pass (one locked directory
  pass for a disk tier, one round-trip for the network tier) instead of
  one open/``stat`` per profile.  See :func:`_init_worker` for the
  worker-side cache handling, and the module docstring of
  :mod:`repro.cache.disk` for the batched write-back the parent applies
  on pool teardown.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Iterable, Iterator, Sequence

from repro.cache import persistent_component
from repro.core.alternatives import AlternativeFlow
from repro.obs.metrics import MetricsRegistry, maybe_timer
from repro.quality.composite import QualityProfile
from repro.quality.estimator import QualityEstimator


def _relabel(profile: QualityProfile, flow_name: str) -> QualityProfile:
    """A shallow copy re-labelled for one flow (as ``cached_profile`` does)."""
    return QualityProfile(
        flow_name=flow_name, scores=dict(profile.scores), values=dict(profile.values)
    )


#: Estimator of the current process-pool worker, installed once per
#: worker process by :func:`_init_worker`.
_WORKER_ESTIMATOR: QualityEstimator | None = None

#: The worker's :meth:`QualityEstimator.shared_simulation` scope.  A pool
#: lives for one evaluation stream, so the scope stays open until the
#: worker process ends with the pool.
_WORKER_SHARING = None

#: Worker-local metrics registry of a pool worker.  Workers accumulate
#: into this private registry and each task returns the drained delta,
#: which the parent folds into its own registry -- registries cross the
#: process boundary as *handles* (see :mod:`repro.obs.metrics`), so
#: counts are never duplicated.
_WORKER_REGISTRY: MetricsRegistry | None = None


def _init_worker(estimator: QualityEstimator, metered: bool = False) -> None:
    """Process-pool initializer: receive the estimator once per worker.

    Amortizes estimator pickling (registry, settings, resource model)
    over the whole campaign instead of paying it per task.  The
    worker-side cache is reduced to the *persistent* component of the
    parent's cache, if any (:func:`repro.cache.persistent_component`):

    * a disk-backed tier unpickles as a fresh handle onto the same
      ``cache_dir``, and a ring of cache servers as a fresh handle onto
      the same shards, giving every worker **read-through** to profiles
      persisted by earlier runs or by concurrent sessions sharing the
      store;
    * a memory-only cache is dropped (it unpickles entry-less, so each
      lookup would be a guaranteed miss) -- parent-side lookups already
      cover the in-process memoization.

    Workers never *write* to the shared cache: the parent inserts every
    freshly computed profile exactly once (batched, flushed on pool
    teardown), which keeps the statistics single-counted and avoids N
    processes racing to publish the same entries.

    The estimator arrives without a simulation memo (it is never
    pickled); each worker opens its own for the pool's lifetime.
    """
    global _WORKER_ESTIMATOR, _WORKER_REGISTRY, _WORKER_SHARING
    estimator.cache = persistent_component(estimator.cache)
    _WORKER_ESTIMATOR = estimator
    _WORKER_SHARING = estimator.shared_simulation()
    _WORKER_SHARING.__enter__()
    _WORKER_REGISTRY = MetricsRegistry() if metered else None


def _evaluate_chunk_pooled(
    alternatives: Sequence[AlternativeFlow],
) -> tuple[list[QualityProfile], dict]:
    """Task body of the initializer-based process pool.

    Resolves the whole chunk against the worker's persistent cache in
    **one** :meth:`~repro.cache.CacheBackend.get_many` pass (one locked
    directory pass for a disk tier, one round-trip for the network
    tier) instead of one open/``stat`` per profile, then estimates the
    misses.  Never writes back -- the parent owns cache insertion.

    Returns the profiles and the worker's drained metric delta (empty
    when the pool is not metered), which the parent merges into its own
    registry: that is how worker-local accumulation flushes back across
    the process boundary.
    """
    estimator = _WORKER_ESTIMATOR
    assert estimator is not None, "worker initializer did not run"
    cache = estimator.cache
    if cache is not None:
        keys = [estimator.cache_key(alternative.flow) for alternative in alternatives]
        hits = cache.get_many(keys)
    else:
        keys = [None] * len(alternatives)
        hits = [None] * len(alternatives)
    profiles: list[QualityProfile] = []
    fresh: dict[str, QualityProfile] = {}  # chunk-local duplicate memo
    for alternative, key, hit in zip(alternatives, keys, hits):
        if hit is None and key is not None:
            hit = fresh.get(key)
        if hit is not None:
            profiles.append(_relabel(hit, alternative.flow.name))
        else:
            with maybe_timer(_WORKER_REGISTRY, "evaluator.estimate_seconds"):
                profile = estimator.evaluate_uncached(alternative.flow)
            if key is not None:
                fresh[key] = profile
            profiles.append(profile)
    delta = _WORKER_REGISTRY.drain() if _WORKER_REGISTRY is not None else {}
    return profiles, delta


class ParallelEvaluator:
    """Evaluates batches or streams of alternative flows, optionally in parallel.

    Parameters
    ----------
    estimator:
        The quality estimator applied to every flow.
    workers:
        ``1`` (the default) evaluates sequentially on the calling thread;
        more run a process pool of that size.  The pool ships the
        estimator once per worker via its initializer and batches
        disk-cache write-back until teardown.
    registry:
        Optional :class:`repro.obs.MetricsRegistry` recording window
        fill/drain timings and per-profile estimation latency; ``None``
        (the default) disables the instrumentation.
    """

    def __init__(
        self,
        estimator: QualityEstimator | None = None,
        workers: int = 1,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.estimator = estimator or QualityEstimator()
        self.workers = workers
        self.registry = registry

    # ------------------------------------------------------------------

    def evaluate(self, alternatives: Sequence[AlternativeFlow]) -> list[AlternativeFlow]:
        """Fill in the quality profile of every alternative, in place.

        Returns the same alternatives as a list for convenience.  Order is
        preserved regardless of the completion order of the workers.
        """
        return list(self.evaluate_stream(list(alternatives)))

    def evaluate_stream(
        self,
        alternatives: Iterable[AlternativeFlow],
        batch_size: int | None = None,
    ) -> Iterator[AlternativeFlow]:
        """Lazily evaluate a stream of alternatives, yielding in input order.

        The input iterable is consumed on demand: at most ``batch_size``
        submissions are in flight at any moment (defaulting to twice the
        worker count), so a lazy generator upstream keeps producing while
        earlier candidates are still simulating.  Each yielded alternative
        has its ``profile`` filled in.

        Cache lookups and insertions happen here, in the caller's process;
        cached alternatives are yielded without ever reaching the pool.
        With a disk-backed cache, insertions are buffered and published
        to disk in one batch at the end of the stream (pool teardown),
        so a long campaign does one eviction sweep instead of thousands
        of tiny ones.  The estimator shares one simulation memo across
        the stream (:meth:`QualityEstimator.shared_simulation`), dropped
        when the stream ends.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        return self._shared(iter(alternatives), batch_size or 2 * self.workers)

    def _shared(
        self, iterator: Iterator[AlternativeFlow], max_inflight: int
    ) -> Iterator[AlternativeFlow]:
        with self.estimator.shared_simulation():
            yield from self._stream(iterator, max_inflight)

    def _stream(
        self, iterator: Iterator[AlternativeFlow], max_inflight: int
    ) -> Iterator[AlternativeFlow]:
        estimator = self.estimator

        # Batched write-back: buffer persistent-tier insertions for the
        # stream's duration and flush them once on teardown (the finally
        # clauses below) -- one eviction sweep / network round-trip per
        # campaign instead of one per stored profile.  The scope is
        # refcounted on the cache (begin/end_write_batch) so concurrent
        # streams sharing one backend -- the redesign service's worker
        # pool -- compose instead of racing on a boolean.  (The HTTP
        # tier always batches and has no scopes.)
        persistent = persistent_component(estimator.cache)
        batching = persistent is not None and hasattr(persistent, "begin_write_batch")
        if batching:
            persistent.begin_write_batch()

        def lookup_window(
            window: Sequence[AlternativeFlow],
        ) -> tuple[list[str | None], list[QualityProfile | None]]:
            """One batched cache pass for a window of candidates.

            `is not None`, not truthiness: bool(cache) would call
            __len__, which scans the directory (or asks the server) on
            persistent tiers.
            """
            if estimator.cache is None:
                return [None] * len(window), [None] * len(window)
            keys = [estimator.cache_key(alternative.flow) for alternative in window]
            return keys, estimator.cache.get_many(keys)

        registry = self.registry

        if self.workers == 1:
            try:
                # Windows of max_inflight keep the sequential path's
                # cache traffic batched too (one get_many per window --
                # a single round-trip on the network tier) while staying
                # within the documented in-flight bound.
                while True:
                    with maybe_timer(registry, "evaluator.window_fill_seconds"):
                        window = list(itertools.islice(iterator, max_inflight))
                        keys, hits = lookup_window(window) if window else ([], [])
                    if not window:
                        break
                    # Window-local memo: candidates sharing a fingerprint
                    # within one window (both looked up before either was
                    # computed) are still simulated only once.
                    fresh: dict[str, QualityProfile] = {}
                    drain_seconds = 0.0
                    for alternative, key, hit in zip(window, keys, hits):
                        if hit is None and key is not None:
                            hit = fresh.get(key)
                        if hit is not None:
                            alternative.profile = _relabel(hit, alternative.flow.name)
                        else:
                            # Timed per profile, accumulated per window;
                            # the yield below suspends the generator, so
                            # a wall-clock bracket around the loop would
                            # bill the *consumer's* time to the drain.
                            with maybe_timer(registry, "evaluator.estimate_seconds") as span:
                                profile = estimator.evaluate_uncached(alternative.flow)
                            drain_seconds += span.elapsed
                            estimator.store_profile(alternative.flow, profile, key)
                            if key is not None:
                                fresh[key] = profile
                            alternative.profile = profile
                        yield alternative
                    if registry is not None:
                        registry.histogram("evaluator.window_drain_seconds").observe(
                            drain_seconds
                        )
            finally:
                if batching:
                    persistent.end_write_batch()
                if estimator.cache is not None:
                    estimator.cache.flush()
            return

        # Groups preserve input order: each pending entry is a contiguous
        # run of alternatives sharing one future (or a single parent-side
        # cache hit with no future).  Several misses are grouped per task
        # so each worker resolves its read-through cache lookups in one
        # get_many pass; with the default window (2 * workers) the chunk
        # size is 1, i.e. one task per alternative.
        pending: deque[
            tuple[list[AlternativeFlow], list[str | None], Future | None]
        ] = deque()
        chunk_size = max(1, max_inflight // (2 * self.workers))
        chunk: list[AlternativeFlow] = []
        chunk_keys: list[str | None] = []

        def inflight() -> int:
            return sum(len(group) for group, _, _ in pending) + len(chunk)

        try:
            # Peek before spinning up a pool: an empty stream must stay free.
            try:
                first = next(iterator)
            except StopIteration:
                return
            iterator = itertools.chain([first], iterator)
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(estimator, registry is not None),
            ) as executor:

                def flush_chunk() -> None:
                    if not chunk:
                        return
                    group, keys = list(chunk), list(chunk_keys)
                    chunk.clear()
                    chunk_keys.clear()
                    future = executor.submit(_evaluate_chunk_pooled, group)
                    pending.append((group, keys, future))

                def refill() -> None:
                    # Top the window up in batches so the parent-side
                    # cache pass is one get_many per refill, not one
                    # lookup per candidate.  The fill span covers pulling
                    # candidates out of the generator plus the batched
                    # cache pass -- everything needed to keep the window
                    # full.
                    fill = maybe_timer(registry, "evaluator.window_fill_seconds")
                    fill.__enter__()
                    while True:
                        want = max_inflight - inflight()
                        if want <= 0:
                            break
                        window = list(itertools.islice(iterator, want))
                        if not window:
                            break
                        keys, hits = lookup_window(window)
                        for alternative, key, hit in zip(window, keys, hits):
                            if hit is not None:
                                # A hit breaks the contiguous run of
                                # misses; flush so yielding stays in
                                # input order.
                                flush_chunk()
                                alternative.profile = _relabel(hit, alternative.flow.name)
                                pending.append(([alternative], [None], None))
                            else:
                                chunk.append(alternative)
                                chunk_keys.append(key)
                                if len(chunk) >= chunk_size:
                                    flush_chunk()
                    # Whatever is buffered must make progress now; the
                    # steady-state refill is one whole chunk anyway.
                    flush_chunk()
                    fill.__exit__(None, None, None)

                refill()
                while pending:
                    group, keys, future = pending.popleft()
                    if future is not None:
                        with maybe_timer(registry, "evaluator.window_drain_seconds"):
                            profiles, delta = future.result()
                        if registry is not None:
                            registry.merge(delta)
                        for alternative, key, profile in zip(group, keys, profiles):
                            estimator.store_profile(alternative.flow, profile, key)
                            alternative.profile = profile
                    refill()
                    yield from group
        finally:
            if batching:
                persistent.end_write_batch()
            if estimator.cache is not None:
                estimator.cache.flush()
