"""Chunked streaming evaluation: batched lookups, preserved semantics.

The evaluator now resolves parent-side cache lookups in one ``get_many``
per window refill and groups process-pool tasks into contiguous chunks
(each resolved worker-side in one batched read-through pass).  These
tests pin the invariants the rewrite must keep: input order, exact
hit/miss accounting, and results identical to sequential evaluation --
with cache hits interleaving the chunks arbitrarily.
"""

from __future__ import annotations

import pytest

from repro.cache import ProfileCache
from repro.core.alternatives import AlternativeFlow
from repro.core.evaluator import ParallelEvaluator
from repro.quality.estimator import EstimationSettings, QualityEstimator


def _alternatives(flow, count):
    return [AlternativeFlow(flow=flow.copy(name=f"alt_{i}")) for i in range(count)]


def _cached_estimator() -> QualityEstimator:
    return QualityEstimator(
        settings=EstimationSettings(simulation_runs=1, seed=3), cache=ProfileCache()
    )


class TestInterleavedHits:
    def test_order_preserved_when_hits_break_the_chunks(self, linear_flow):
        """Pre-warm a scattered subset; hits must not reorder the stream."""
        estimator = _cached_estimator()
        warmup = _alternatives(linear_flow, 9)
        # warm alternating candidates (distinct flows alternate by name...
        # but fingerprints ignore names, so *every* alt here shares one
        # profile; warm via a distinct estimator to keep stats clean)
        seeder = QualityEstimator(settings=estimator.settings, cache=estimator.cache)
        seeder.evaluate(warmup[0].flow)

        evaluator = ParallelEvaluator(estimator=estimator, workers=3)
        streamed = list(evaluator.evaluate_stream(iter(warmup), batch_size=4))
        assert streamed == warmup
        assert all(alt.profile is not None for alt in streamed)
        # every lookup hit (structurally identical flows share one entry)
        assert estimator.cache.stats.hits >= len(warmup)

    def test_batched_window_counts_one_lookup_and_simulates_once(
        self, linear_flow, monkeypatch
    ):
        estimator = _cached_estimator()
        computed = {"count": 0}
        real = estimator.evaluate_uncached

        def counting(flow, archive=None):
            computed["count"] += 1
            return real(flow, archive)

        monkeypatch.setattr(estimator, "evaluate_uncached", counting)
        alternatives = _alternatives(linear_flow, 6)
        evaluator = ParallelEvaluator(estimator=estimator, workers=1)
        list(evaluator.evaluate_stream(iter(alternatives), batch_size=4))
        stats = estimator.cache.stats
        # 6 candidates -> 6 logical lookups exactly (one per candidate).
        # All six share one fingerprint: the first window's 4 lookups all
        # miss (batched before anything was computed), the second window's
        # 2 hit -- but the window-local memo keeps it one simulation.
        assert stats.lookups == 6
        assert stats.misses == 4 and stats.hits == 2
        assert computed["count"] == 1

    def test_sequential_windowing_matches_unwindowed_results(self, linear_flow):
        baseline = ParallelEvaluator(estimator=_cached_estimator(), workers=1).evaluate(
            _alternatives(linear_flow, 5)
        )
        windowed = list(
            ParallelEvaluator(estimator=_cached_estimator(), workers=1).evaluate_stream(
                iter(_alternatives(linear_flow, 5)), batch_size=2
            )
        )
        for expected, got in zip(baseline, windowed):
            assert expected.profile.scores == got.profile.scores


@pytest.mark.slow
class TestPooledChunks:
    def test_chunked_process_pool_matches_sequential(self, linear_flow, tmp_path):
        """eval window 16 with 2 workers -> chunks of 4 per task."""
        from repro.cache import DiskProfileCache, TieredProfileCache

        sequential = ParallelEvaluator(estimator=_cached_estimator(), workers=1).evaluate(
            _alternatives(linear_flow, 10)
        )
        tiered = TieredProfileCache(ProfileCache(), DiskProfileCache(tmp_path))
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=tiered
        )
        pooled = ParallelEvaluator(estimator=estimator, workers=2)
        streamed = list(
            pooled.evaluate_stream(iter(_alternatives(linear_flow, 10)), batch_size=16)
        )
        assert [a.flow.name for a in streamed] == [f"alt_{i}" for i in range(10)]
        for expected, got in zip(sequential, streamed):
            assert expected.profile.scores == got.profile.scores
        # the parent published its batch on teardown
        assert len(tiered.disk) > 0
