"""Tests for the planner pipeline, the parallel evaluator and redesign sessions."""

import pytest

from repro.cache import ProfileCache
from repro.core.alternatives import AlternativeFlow
from repro.core.configuration import MeasureConstraint, ProcessingConfiguration
from repro.core.evaluator import ParallelEvaluator
from repro.core.planner import Planner, PlanningResult
from repro.core.session import RedesignSession
from repro.patterns.registry import default_palette, figure6_palette
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.quality.framework import QualityCharacteristic


def _fast_config(**overrides) -> ProcessingConfiguration:
    defaults = dict(
        pattern_budget=1,
        max_points_per_pattern=2,
        simulation_runs=1,
        max_alternatives=200,
    )
    defaults.update(overrides)
    return ProcessingConfiguration(**defaults)


class TestParallelEvaluator:
    def _alternatives(self, flow, count=4):
        return [AlternativeFlow(flow=flow.copy(name=f"alt_{i}")) for i in range(count)]

    def test_sequential_evaluation_fills_profiles(self, linear_flow, fast_estimator):
        evaluator = ParallelEvaluator(estimator=fast_estimator)
        alternatives = evaluator.evaluate(self._alternatives(linear_flow))
        assert all(alt.profile is not None for alt in alternatives)

    def test_evaluator_matches_direct_estimation(self, linear_flow):
        estimator = QualityEstimator(settings=EstimationSettings(simulation_runs=1, seed=3))
        evaluated = ParallelEvaluator(estimator=estimator).evaluate(
            self._alternatives(linear_flow)
        )
        direct = estimator.evaluate_uncached(linear_flow)
        for alternative in evaluated:
            assert alternative.profile.scores == direct.scores

    def test_one_key_in_one_window_shares_one_profile(self, linear_flow, monkeypatch):
        """Copies of one flow share a cache key: one estimate, one shared profile,
        and each alternative still reports its own flow's name."""
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=ProfileCache()
        )
        estimated = []
        evaluate_uncached = estimator.evaluate_uncached
        monkeypatch.setattr(
            estimator,
            "evaluate_uncached",
            lambda flow: estimated.append(flow.name) or evaluate_uncached(flow),
        )
        alternatives = self._alternatives(linear_flow)
        evaluated = list(
            ParallelEvaluator(estimator=estimator).evaluate_stream(
                alternatives, batch_size=len(alternatives)
            )
        )
        assert estimated == ["alt_0"]
        (shared,) = {id(alternative.profile) for alternative in evaluated}
        result = PlanningResult(
            initial_flow=linear_flow,
            baseline_profile=estimator.evaluate(linear_flow),
            alternatives=evaluated,
        )
        for index, alternative in enumerate(evaluated):
            assert alternative.flow.name == f"alt_{index}"
            assert result.comparison(alternative).flow_name == f"alt_{index}"
            assert result.comparison(alternative).baseline_name == linear_flow.name

    def test_empty_batch(self, fast_estimator):
        assert ParallelEvaluator(estimator=fast_estimator).evaluate([]) == []

    def test_invalid_parameters(self):
        with pytest.raises(TypeError):
            ParallelEvaluator(workers=2)  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            ParallelEvaluator(backend="thread")  # type: ignore[call-arg]


class TestPlanner:
    def test_plan_produces_alternatives_profiles_and_skyline(self, small_purchases):
        planner = Planner(configuration=_fast_config())
        result = planner.plan(small_purchases)
        assert isinstance(result, PlanningResult)
        assert result.alternatives
        assert all(alt.profile is not None for alt in result.alternatives)
        assert result.skyline_indices
        assert set(result.skyline_indices) <= set(range(len(result.alternatives)))
        assert result.baseline_profile is planner.evaluate_flow(small_purchases)  # cached

    def test_skyline_profiles_are_mutually_non_dominated(self, small_purchases):
        planner = Planner(configuration=_fast_config(pattern_budget=2))
        result = planner.plan(small_purchases)
        skyline = result.skyline
        for a in skyline:
            for b in skyline:
                if a is b:
                    continue
                assert not a.profile.dominates(b.profile, result.characteristics)

    def test_dominated_alternatives_are_not_on_skyline(self, small_purchases):
        planner = Planner(configuration=_fast_config(pattern_budget=2))
        result = planner.plan(small_purchases)
        skyline_set = set(result.skyline_indices)
        for index, alternative in enumerate(result.alternatives):
            if index in skyline_set:
                continue
            dominated = any(
                other.profile.dominates(alternative.profile, result.characteristics)
                for other in result.alternatives
                if other is not alternative
            )
            assert dominated

    def test_constraints_discard_alternatives(self, small_purchases):
        unconstrained = Planner(configuration=_fast_config()).plan(small_purchases)
        impossible = _fast_config(
            constraints=(MeasureConstraint("performance", min_value=1_000.0),)
        )
        constrained = Planner(configuration=impossible).plan(small_purchases)
        assert constrained.discarded_by_constraints == len(unconstrained.alternatives)
        assert constrained.alternatives == []
        assert constrained.skyline_indices == []

    def test_comparison_against_baseline(self, small_purchases):
        planner = Planner(configuration=_fast_config())
        result = planner.plan(small_purchases)
        parallel_alt = next(
            (alt for alt in result.alternatives if "ParallelizeTask" in alt.pattern_names),
            None,
        )
        assert parallel_alt is not None
        comparison = result.comparison(parallel_alt)
        cycle = comparison.measure_changes["process_cycle_time_ms"]
        assert cycle.new_value < cycle.baseline_value
        assert cycle.relative_improvement > 0

    def test_best_for_characteristic(self, small_purchases):
        planner = Planner(configuration=_fast_config())
        result = planner.plan(small_purchases)
        best_reliability = result.best_for(QualityCharacteristic.RELIABILITY)
        assert "AddCheckpoint" in best_reliability.pattern_names

    def test_restricted_palette(self, small_purchases):
        planner = Planner(
            palette=figure6_palette().subset(["AddCheckpoint"]),
            configuration=_fast_config(),
        )
        result = planner.plan(small_purchases)
        assert result.alternatives
        assert all(alt.pattern_names == ("AddCheckpoint",) for alt in result.alternatives)

    def test_summary_keys(self, small_purchases):
        result = Planner(configuration=_fast_config()).plan(small_purchases)
        summary = result.summary()
        assert summary["initial_flow"] == small_purchases.name
        assert summary["alternatives"] == len(result.alternatives)
        assert summary["skyline_size"] == len(result.skyline_indices)

    def test_comparison_requires_evaluated_alternative(self, small_purchases):
        result = Planner(configuration=_fast_config()).plan(small_purchases)
        unevaluated = AlternativeFlow(flow=small_purchases.copy())
        with pytest.raises(ValueError):
            result.comparison(unevaluated)


class TestRedesignSession:
    def test_iterate_and_select(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        iteration = session.iterate()
        assert session.iteration_count == 1
        choice = iteration.result.skyline[0]
        new_flow = session.select(choice)
        assert new_flow is session.current_flow
        assert new_flow.signature() != small_purchases.signature()
        assert iteration.selected is choice
        assert iteration.selected_comparison is not None

    def test_select_requires_iteration(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        with pytest.raises(ValueError):
            session.select(AlternativeFlow(flow=small_purchases.copy()))

    def test_select_rejects_foreign_alternative(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        session.iterate()
        with pytest.raises(ValueError):
            session.select(AlternativeFlow(flow=small_purchases.copy()))

    def test_select_best_improves_target_characteristic(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        baseline = session.planner.evaluate_flow(small_purchases)
        session.iterate()
        best = session.select_best(QualityCharacteristic.RELIABILITY)
        assert best.profile.score(QualityCharacteristic.RELIABILITY) >= baseline.score(
            QualityCharacteristic.RELIABILITY
        )

    def test_incremental_iterations_accumulate_patterns(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        session.run(iterations=2)
        assert session.iteration_count == 2
        assert len(session.current_flow.applied_patterns) >= 2
        history = session.history()
        assert len(history) == 2
        assert history[0]["selected"] is not None

    def test_run_with_custom_chooser_stopping_early(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        session.run(iterations=3, chooser=lambda result: None)
        assert session.iteration_count == 1
        assert session.current_flow is small_purchases

    def test_run_requires_positive_iterations(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        with pytest.raises(ValueError):
            session.run(iterations=0)

    def test_current_profile(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=_fast_config())
        profile = session.current_profile
        assert profile == session.planner.estimator.evaluate_uncached(small_purchases)
