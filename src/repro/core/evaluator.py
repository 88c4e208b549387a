"""Streaming evaluation of alternative flows.

The processing and analysis of the alternative process designs is a
process-intensive task, mainly due to the large number of alternative
flows that have to be concurrently evaluated; the paper offloads it to
Amazon EC2 elastic infrastructures running in the background.  In this
reproduction that role belongs to the fleet -- planner workers draining
a shared job queue (:mod:`repro.fleet`) -- so within one plan the
evaluator is a single loop on the calling thread, with two levers:

* **Streaming** -- :meth:`ParallelEvaluator.evaluate_stream` consumes a
  *generator* of alternatives one window at a time, so memory stays
  proportional to the window, not to the alternative space.  Results
  are yielded in input order as soon as each profile is filled in.
* **Memoization** -- when the estimator carries a cache backend (any
  :mod:`repro.cache` tier), each window is resolved in one
  :meth:`~repro.cache.CacheBackend.get_many` pass (one locked directory
  pass for a disk tier, one round-trip per shard on the ring) and every
  freshly computed profile is inserted back, counting every alternative
  exactly once in the hit/miss statistics.  Persistent-tier insertions
  are batched for the whole stream; see the module docstring of
  :mod:`repro.cache.disk`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from repro.cache import persistent_component
from repro.core.alternatives import AlternativeFlow
from repro.core.configuration import DEFAULT_EVAL_BATCH_SIZE
from repro.obs.metrics import MetricsRegistry, maybe_timer
from repro.quality.composite import QualityProfile
from repro.quality.estimator import QualityEstimator


def _relabel(profile: QualityProfile, flow_name: str) -> QualityProfile:
    """A shallow copy re-labelled for one flow (as ``cached_profile`` does)."""
    return QualityProfile(
        flow_name=flow_name, scores=dict(profile.scores), values=dict(profile.values)
    )


class ParallelEvaluator:
    """Evaluates batches or streams of alternative flows on the calling thread.

    Parameters
    ----------
    estimator:
        The quality estimator applied to every flow.
    registry:
        Optional :class:`repro.obs.MetricsRegistry` recording window
        fill/drain timings and per-profile estimation latency; ``None``
        (the default) disables the instrumentation.
    """

    def __init__(
        self,
        estimator: QualityEstimator | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.estimator = estimator or QualityEstimator()
        self.registry = registry

    # ------------------------------------------------------------------

    def evaluate(self, alternatives: Sequence[AlternativeFlow]) -> list[AlternativeFlow]:
        """Fill in the quality profile of every alternative, in place.

        Returns the same alternatives as a list for convenience, in
        input order.
        """
        return list(self.evaluate_stream(list(alternatives)))

    def evaluate_stream(
        self,
        alternatives: Iterable[AlternativeFlow],
        batch_size: int = DEFAULT_EVAL_BATCH_SIZE,
    ) -> Iterator[AlternativeFlow]:
        """Lazily evaluate a stream of alternatives, yielding in input order.

        The input iterable is consumed one window of ``batch_size``
        candidates at a time (the default is the default of
        ``ProcessingConfiguration.eval_batch_size``).  A window is one
        batched cache lookup and the scope of a duplicate memo:
        candidates sharing a cache key within a window are simulated
        once.  Each yielded alternative has its ``profile`` filled in.

        With a persistent cache tier, insertions are buffered and
        published in one batch when the stream ends, so a long campaign
        does one eviction sweep instead of thousands of tiny ones.  The
        estimator shares one simulation memo across the stream
        (:meth:`QualityEstimator.shared_simulation`), dropped when the
        stream ends.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        return self._stream(iter(alternatives), batch_size)

    def _stream(
        self, iterator: Iterator[AlternativeFlow], window_size: int
    ) -> Iterator[AlternativeFlow]:
        estimator = self.estimator
        registry = self.registry

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

        # Batched write-back: buffer persistent-tier insertions for the
        # stream's duration and flush them once on teardown (the finally
        # clause below) -- one eviction sweep / network round-trip per
        # campaign instead of one per stored profile.  The scope is
        # refcounted on the cache (begin/end_write_batch) so concurrent
        # streams sharing one backend -- the redesign service's workers
        # -- compose instead of racing on a boolean.  (The HTTP tier
        # always batches and has no scopes.)
        persistent = persistent_component(estimator.cache)
        batching = persistent is not None and hasattr(persistent, "begin_write_batch")
        with estimator.shared_simulation():
            if batching:
                persistent.begin_write_batch()
            try:
                while True:
                    with maybe_timer(registry, "evaluator.window_fill_seconds"):
                        window = list(itertools.islice(iterator, window_size))
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
