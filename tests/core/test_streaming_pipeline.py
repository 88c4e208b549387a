"""Tests for the streaming planning pipeline.

Covers the lazy alternative generator, the streaming evaluator and the
profile cache shared across session iterations -- including the
equivalence guarantee: the streaming, cached pipeline reproduces a plan
made from scratch (``tests/reference_planner.py``) exactly.
"""

import json

import pytest

from repro.cache import ProfileCache
from repro.core.alternatives import AlternativeFlow, AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.evaluator import ParallelEvaluator
from repro.core.planner import PlanningResult
from repro.core.session import RedesignSession
from repro.patterns.registry import default_palette
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.quality.framework import QualityCharacteristic
from tests.reference_planner import reference_plan


class TestLazyGeneration:
    def test_fresh_generators_agree(self, small_purchases, make_config):
        config = make_config(pattern_budget=2)
        first = AlternativeGenerator(default_palette(), configuration=config)
        second = AlternativeGenerator(default_palette(), configuration=config)
        first_alts = list(first.generate_iter(small_purchases))
        second_alts = list(second.generate_iter(small_purchases))
        assert [a.label for a in first_alts] == [a.label for a in second_alts]
        assert [a.pattern_names for a in first_alts] == [a.pattern_names for a in second_alts]
        assert [a.flow.signature() for a in first_alts] == [
            a.flow.signature() for a in second_alts
        ]

    def test_generate_iter_is_genuinely_lazy(self, small_purchases, make_config):
        config = make_config(pattern_budget=2)
        generator = AlternativeGenerator(default_palette(), configuration=config)
        total = {"calls": 0}
        original = generator._apply_combination

        def counting(*args):
            total["calls"] += 1
            return original(*args)

        generator._apply_combination = counting
        full = list(generator.generate_iter(small_purchases))
        full_calls = total["calls"]
        assert len(full) > 5

        total["calls"] = 0
        stream = generator.generate_iter(small_purchases)
        next(stream)
        assert 0 < total["calls"] < full_calls / 2

    def test_generate_iter_respects_max_alternatives(self, small_purchases, make_config):
        config = make_config(pattern_budget=2, max_alternatives=3)
        generator = AlternativeGenerator(default_palette(), configuration=config)
        alternatives = list(generator.generate_iter(small_purchases))
        assert len(alternatives) == 3
        assert [a.label for a in alternatives] == ["ETL Flow 1", "ETL Flow 2", "ETL Flow 3"]

    def test_labels_follow_enumeration_order(self, small_purchases, make_config):
        generator = AlternativeGenerator(default_palette(), configuration=make_config())
        for index, alternative in enumerate(generator.generate_iter(small_purchases)):
            assert alternative.label == f"ETL Flow {index + 1}"


class TestStreamingEvaluator:
    def _alternatives(self, flow, count=6):
        return [AlternativeFlow(flow=flow.copy(name=f"alt_{i}")) for i in range(count)]

    def test_stream_preserves_input_order(self, linear_flow, fast_estimator):
        evaluator = ParallelEvaluator(estimator=fast_estimator)
        alternatives = self._alternatives(linear_flow, count=10)
        streamed = list(evaluator.evaluate_stream(iter(alternatives), batch_size=3))
        assert streamed == alternatives
        assert all(alt.profile is not None for alt in streamed)

    def test_stream_consumes_input_lazily(self, linear_flow, fast_estimator):
        evaluator = ParallelEvaluator(estimator=fast_estimator)
        alternatives = self._alternatives(linear_flow, count=12)
        pulled = {"count": 0}

        def producer():
            for alternative in alternatives:
                pulled["count"] += 1
                yield alternative

        stream = evaluator.evaluate_stream(producer(), batch_size=2)
        first = next(stream)
        assert first is alternatives[0]
        assert pulled["count"] < len(alternatives)
        rest = list(stream)
        assert pulled["count"] == len(alternatives)
        assert [first, *rest] == alternatives

    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    def test_batch_size_bounds_inflight(self, linear_flow, fast_estimator, batch_size):
        """The first yield pulls exactly one window from the producer."""
        evaluator = ParallelEvaluator(estimator=fast_estimator)
        alternatives = self._alternatives(linear_flow, count=12)
        pulled = {"count": 0}

        def producer():
            for alternative in alternatives:
                pulled["count"] += 1
                yield alternative

        stream = evaluator.evaluate_stream(producer(), batch_size=batch_size)
        next(stream)
        assert pulled["count"] == batch_size
        assert list(stream) == alternatives[1:]

    def test_stream_fills_the_cache_for_a_restream(self, linear_flow):
        cache = ProfileCache()
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=cache
        )
        evaluator = ParallelEvaluator(estimator=estimator)
        first = list(evaluator.evaluate_stream(self._alternatives(linear_flow, count=3)))
        assert all(alt.profile is not None for alt in first)
        assert cache.stats.misses == 3
        # re-streaming identical flows is served from what the first
        # stream stored
        second = list(evaluator.evaluate_stream(self._alternatives(linear_flow, count=3)))
        assert cache.stats.hits == 3
        for a, b in zip(first, second):
            assert a.profile.scores == b.profile.scores

    def test_stream_matches_batch_evaluate(self, linear_flow):
        estimator = QualityEstimator(settings=EstimationSettings(simulation_runs=1, seed=3))
        batch = ParallelEvaluator(estimator=estimator).evaluate(
            self._alternatives(linear_flow)
        )
        streamed = list(
            ParallelEvaluator(estimator=estimator).evaluate_stream(
                self._alternatives(linear_flow)
            )
        )
        for expected, got in zip(batch, streamed):
            assert expected.profile.scores == got.profile.scores

    def test_stream_rejects_invalid_batch_size_eagerly(self, linear_flow, fast_estimator):
        evaluator = ParallelEvaluator(estimator=fast_estimator)
        with pytest.raises(ValueError):
            evaluator.evaluate_stream([], batch_size=0)  # raises at call time

    def test_empty_stream_yields_nothing(self, fast_estimator):
        evaluator = ParallelEvaluator(estimator=fast_estimator)
        assert list(evaluator.evaluate_stream(iter([]))) == []
        assert evaluator.evaluate([]) == []

    def test_workers_one_streams_sequentially(self, linear_flow, fast_estimator):
        evaluator = ParallelEvaluator(estimator=fast_estimator)
        alternatives = self._alternatives(linear_flow, count=3)
        assert list(evaluator.evaluate_stream(iter(alternatives))) == alternatives


class TestStreamingPlanEquivalence:
    def test_plan_matches_eager_pipeline(self, small_purchases, make_planner):
        streaming_planner = make_planner()
        eager = reference_plan(small_purchases, streaming_planner.configuration)
        streaming = streaming_planner.plan(small_purchases)

        assert json.dumps(streaming.summary(), sort_keys=True) == json.dumps(
            eager.summary(), sort_keys=True
        )
        assert [a.label for a in streaming.alternatives] == [
            a.label for a in eager.alternatives
        ]
        assert streaming.fingerprint() == eager.fingerprint()

    @pytest.mark.parametrize("batch_size", [1, 2, 5, 64])
    def test_window_size_does_not_change_the_plan(
        self, small_purchases, make_planner, batch_size
    ):
        default = make_planner().plan(small_purchases)
        windowed = make_planner(eval_batch_size=batch_size).plan(small_purchases)
        assert windowed.fingerprint() == default.fingerprint()

    def test_window_configuration_validation(self):
        with pytest.raises(ValueError):
            ProcessingConfiguration(eval_batch_size=0)


class TestSessionCaching:
    def test_cache_hits_accumulate_across_iterations(self, small_purchases, make_config):
        session = RedesignSession(
            small_purchases, configuration=make_config(pattern_budget=2)
        )
        session.iterate()
        first = session.cache_stats()
        assert first["hits"] == 0
        assert first["misses"] == first["lookups"] > 0

        session.select_best(QualityCharacteristic.PERFORMANCE)
        session.iterate()
        second = session.cache_stats()
        # iteration 2's baseline is the flow adopted in iteration 1: a hit
        assert second["hits"] >= 1
        assert second["misses"] + second["hits"] == second["lookups"]

    def test_replanning_is_served_from_the_cache(self, small_purchases, seeded_planner):
        first = seeded_planner.plan(small_purchases)
        stats_after_first = dict(seeded_planner.profile_cache.stats.as_dict())
        second = seeded_planner.plan(small_purchases)
        stats_after_second = seeded_planner.profile_cache.stats.as_dict()
        # the re-plan re-generates the same flows; every profile is a hit
        assert stats_after_second["misses"] == stats_after_first["misses"]
        assert stats_after_second["hits"] == stats_after_first["hits"] + len(
            first.alternatives
        ) + 1  # +1 for the baseline
        assert second.summary() == first.summary()
        for a, b in zip(first.alternatives, second.alternatives):
            assert a.profile.scores == b.profile.scores


class TestBestFor:
    def test_best_for_skips_unevaluated_alternatives(self, small_purchases, seeded_planner):
        result = seeded_planner.plan(small_purchases)
        unevaluated = AlternativeFlow(flow=small_purchases.copy(), label="unscored")
        result.alternatives.append(unevaluated)
        best = result.best_for(QualityCharacteristic.PERFORMANCE)
        assert best is not unevaluated
        assert best.profile is not None

    def test_best_for_raises_when_nothing_evaluated(self, small_purchases):
        result = PlanningResult(
            initial_flow=small_purchases,
            baseline_profile=None,
            alternatives=[AlternativeFlow(flow=small_purchases.copy())],
        )
        with pytest.raises(ValueError):
            result.best_for(QualityCharacteristic.PERFORMANCE)

    def test_best_for_raises_without_alternatives(self, small_purchases):
        result = PlanningResult(initial_flow=small_purchases, baseline_profile=None)
        with pytest.raises(ValueError):
            result.best_for(QualityCharacteristic.PERFORMANCE)
