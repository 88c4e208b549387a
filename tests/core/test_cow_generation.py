"""Tests of alternative generation on flow copies.

Covers equivalence of the generator with the from-scratch reference in
``tests/reference_generator.py``, the isolation between the caller's flow
and the alternatives forked from it, the annotation-aware dedup
regression (graph-level patterns must survive), :class:`GenerationStats`,
the removed mode knobs, and the evaluator reading forked copies as it
reads self-contained flows.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.alternatives import AlternativeGenerator, GenerationStats
from repro.core.configuration import ProcessingConfiguration
from repro.core.evaluator import ParallelEvaluator
from repro.core.policies import ExhaustivePolicy, HeuristicPolicy
from repro.etl.validation import is_valid
from repro.patterns.registry import default_palette
from repro.quality.estimator import EstimationSettings, QualityEstimator
from tests.conftest import set_config
from tests.reference_generator import outcome, reference_generate


def _generator(**overrides):
    defaults = dict(pattern_budget=2, max_points_per_pattern=2)
    defaults.update(overrides)
    config = ProcessingConfiguration(**defaults)
    return AlternativeGenerator(default_palette(), HeuristicPolicy(), config)


def _generate(flow, **overrides):
    generator = _generator(**overrides)
    return list(generator.generate_iter(flow)), generator


class TestCowDeepEquivalence:
    """The generator against the from-scratch reference."""

    def test_identical_alternative_streams(self, small_purchases):
        cow, generator = _generate(small_purchases)
        reference, _ = reference_generate(generator, small_purchases)
        assert outcome(cow) == outcome(reference)

    def test_identical_with_budget_three(self, small_purchases):
        cow, generator = _generate(small_purchases, pattern_budget=3, max_alternatives=300)
        reference, _ = reference_generate(generator, small_purchases)
        assert outcome(cow) == outcome(reference)

    def test_identical_with_repeated_patterns(self, small_purchases):
        # A pattern named twice yields conflicting deployments (the same
        # pattern at the same point, a graph-level pattern twice), so the
        # generator screens combinations one by one.
        names = ("FilterNullValues", "EncryptDataFlow", "FilterNullValues", "EncryptDataFlow")
        cow, generator = _generate(small_purchases, pattern_budget=3, pattern_names=names)
        deployments = generator.candidate_deployments(small_purchases)
        assert len({d.conflict for d in deployments}) < len(deployments)
        reference, _ = reference_generate(generator, small_purchases)
        assert len(cow) > 0
        assert outcome(cow) == outcome(reference)

    def test_identical_with_an_overridden_applicability_check(self, small_purchases):
        # A pattern that overrides is_applicable_at is re-checked through
        # it, not through its declared prerequisites.
        palette = default_palette()
        checkpoint = palette.get("AddCheckpoint")

        def applicable(flow, point, original=checkpoint.is_applicable_at):
            return original(flow, point) and flow.node_count < len(small_purchases) + 2

        checkpoint.is_applicable_at = applicable
        config = ProcessingConfiguration(pattern_budget=3, max_points_per_pattern=3)
        generator = AlternativeGenerator(palette, HeuristicPolicy(), config)
        cow = list(generator.generate_iter(small_purchases))
        reference, _ = reference_generate(generator, small_purchases)
        assert outcome(cow) == outcome(reference)

    def test_cow_alternatives_are_valid_and_self_contained(self, small_purchases):
        cow, _ = _generate(small_purchases)
        for alternative in cow:
            assert is_valid(alternative.flow)
        # mutating one alternative must not bleed into any other
        first = cow[0].flow
        target = first.operation_ids()[0]
        set_config(first, target, marker=True)
        assert "marker" not in small_purchases.operation(target).config
        for other in cow[1:]:
            if target in other.flow:
                assert "marker" not in other.flow.operation(target).config

    def test_initial_flow_untouched_by_cow_generation(self, small_purchases):
        before = small_purchases.signature()
        _generate(small_purchases)
        assert small_purchases.signature() == before

    def test_caller_writes_never_reach_alternatives(self, small_purchases):
        # Alternatives fork the caller's flow and share its operations;
        # later writes to the caller's flow must not bleed into them.
        cow, _ = _generate(small_purchases)
        target = small_purchases.operation_ids()[0]
        original = small_purchases.operation(target)
        assert any(alt.flow.operation(target) is original for alt in cow)
        before = [alt.flow.to_dict() for alt in cow]
        set_config(small_purchases, target, marker="caller-write")
        edge = small_purchases.edges()[0]
        small_purchases.remove_edge(edge.source, edge.target)
        assert [alt.flow.to_dict() for alt in cow] == before

    def test_interleaved_lazy_runs_keep_separate_state(self, small_purchases, tpch_flow):
        # Two partially consumed generate_iter runs on the same generator
        # must each validate against their own base flow.
        generator = _generator()
        first = generator.generate_iter(small_purchases)
        second = generator.generate_iter(tpch_flow)
        interleaved = []
        for _ in range(5):
            interleaved.append(next(first))
            interleaved.append(next(second))
        interleaved.extend(first)
        interleaved.extend(second)
        assert all(is_valid(alt.flow) for alt in interleaved)
        solo, _ = reference_generate(generator, small_purchases)
        purchases_part = [
            alt for alt in interleaved if alt.flow.name.startswith(small_purchases.name)
        ]
        assert outcome(purchases_part) == outcome(solo)

    def test_planner_plan_equivalent_across_modes(self, small_purchases, make_planner):
        """A plan is the same whether its candidates come from the
        generator or from the reference."""
        generated = make_planner(pattern_budget=2).plan(small_purchases)

        reference_planner = make_planner(pattern_budget=2)
        generator = reference_planner.generator
        generator.generate_iter = lambda flow: iter(reference_generate(generator, flow)[0])
        reference = reference_planner.plan(small_purchases)

        assert generated.fingerprint() == reference.fingerprint()
        assert [a.label for a in generated.alternatives] == [
            a.label for a in reference.alternatives
        ]


class TestGraphLevelDedupRegression:
    """Annotation-only patterns must survive signature deduplication."""

    def test_graph_level_pattern_survives(self, small_purchases):
        config = ProcessingConfiguration(
            pattern_budget=1,
            max_points_per_pattern=2,
            pattern_names=("EncryptDataFlow",),
        )
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        alternatives = list(generator.generate_iter(small_purchases))
        assert len(alternatives) == 1
        assert alternatives[0].pattern_names == ("EncryptDataFlow",)
        assert alternatives[0].flow.annotations.get("encryption") is True

    def test_structure_plus_annotation_combo_not_pruned(self, small_purchases):
        config = ProcessingConfiguration(
            pattern_budget=2,
            max_points_per_pattern=1,
            pattern_names=("AddCheckpoint", "EncryptDataFlow"),
        )
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        names = {alt.pattern_names for alt in generator.generate_iter(small_purchases)}
        assert ("AddCheckpoint",) in names
        assert ("EncryptDataFlow",) in names
        assert ("AddCheckpoint", "EncryptDataFlow") in names

    def test_same_annotation_twice_is_still_pruned(self, small_purchases):
        # two alternatives with identical structure AND identical
        # annotations remain duplicates
        config = ProcessingConfiguration(
            pattern_budget=2,
            max_points_per_pattern=4,
            pattern_names=("EncryptDataFlow",),
        )
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        assert len(list(generator.generate_iter(small_purchases))) == 1


class TestGenerationStats:
    def test_stats_filled_in(self, small_purchases):
        _, generator = _generate(small_purchases)
        stats = generator.last_stats
        assert isinstance(stats, GenerationStats)
        assert stats.yielded > 0
        assert stats.combinations_tried >= stats.yielded
        assert stats.wall_seconds > 0
        assert stats.candidates_per_second > 0
        payload = stats.as_dict()
        assert payload["yielded"] == stats.yielded

    def test_stats_track_duplicates(self, small_purchases):
        _, generator = _generate(small_purchases, pattern_budget=2, max_points_per_pattern=4)
        stats = generator.last_stats
        assert stats.duplicates_pruned >= 0
        assert stats.combinations_tried == (
            stats.yielded + stats.duplicates_pruned + stats.invalid_discarded
        )


class TestBackendKnob:
    """Evaluation has no backend or pool knobs: it runs on the planning thread."""

    def test_invalid_backend_rejected(self):
        # the thread/process switch and the process pool are gone, and so
        # are the beam screening, the cache switch and the static-only
        # switch (static-only estimation is a registry without trace
        # measures)
        with pytest.raises(TypeError):
            ProcessingConfiguration(backend="process")
        with pytest.raises(TypeError):
            ProcessingConfiguration(parallel_workers=2)
        with pytest.raises(TypeError):
            ProcessingConfiguration(screening_beam=3)
        with pytest.raises(TypeError):
            ProcessingConfiguration(cache_profiles=False)
        with pytest.raises(TypeError):
            EstimationSettings(use_simulation=False)

    def test_invalid_copy_mode_rejected(self):
        # generation always forks flow copies and runs the prefix cache
        for knob in ("copy_mode", "prefix_cache", "executor_backend"):
            with pytest.raises(TypeError):
                ProcessingConfiguration(**{knob: "deep"})


class TestEvaluatingCopies:
    def test_forked_copies_evaluate_like_self_contained_flows(self, small_purchases):
        """A fork sharing its parent's structure scores as its pickled value."""
        alternatives, _ = _generate(small_purchases, max_alternatives=4)
        estimator = QualityEstimator(settings=EstimationSettings(simulation_runs=1, seed=3))
        evaluated = ParallelEvaluator(estimator=estimator).evaluate(alternatives)
        for alternative in evaluated:
            standalone = pickle.loads(pickle.dumps(alternative.flow))
            assert estimator.evaluate_uncached(standalone).scores == alternative.profile.scores
