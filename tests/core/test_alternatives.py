"""Tests for alternative-flow generation (pattern generation + application)."""

import pytest

from repro.core.alternatives import AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.policies import ExhaustivePolicy, HeuristicPolicy
from repro.etl.validation import is_valid
from repro.patterns.registry import default_palette, figure6_palette


class TestCandidateDeployments:
    def test_all_patterns_checked(self, small_purchases):
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy())
        counts = generator.application_point_counts(small_purchases)
        assert set(counts) == set(default_palette().names())
        # every pattern of the Fig. 6 palette finds at least one point on
        # the purchases flow
        for name in figure6_palette().names():
            assert counts[name] >= 1, name

    def test_policy_limits_points_per_pattern(self, small_purchases):
        config = ProcessingConfiguration(max_points_per_pattern=1)
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        deployments = generator.candidate_deployments(small_purchases)
        per_pattern: dict[str, int] = {}
        for deployment in deployments:
            per_pattern[deployment.pattern.name] = per_pattern.get(deployment.pattern.name, 0) + 1
        assert all(count <= 1 for count in per_pattern.values())

    def test_palette_restriction(self, small_purchases):
        config = ProcessingConfiguration(pattern_names=("FilterNullValues",))
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        deployments = generator.candidate_deployments(small_purchases)
        assert deployments
        assert all(d.pattern.name == "FilterNullValues" for d in deployments)


class TestGeneration:
    def test_budget_one_yields_single_pattern_alternatives(self, small_purchases):
        config = ProcessingConfiguration(pattern_budget=1, max_points_per_pattern=2)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        alternatives = list(generator.generate_iter(small_purchases))
        assert alternatives
        assert all(len(alt.applications) == 1 for alt in alternatives)

    def test_budget_two_yields_combinations(self, small_purchases):
        config = ProcessingConfiguration(pattern_budget=2, max_points_per_pattern=2)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        alternatives = list(generator.generate_iter(small_purchases))
        sizes = {len(alt.applications) for alt in alternatives}
        assert sizes == {1, 2}
        singles = sum(1 for alt in alternatives if len(alt.applications) == 1)
        pairs = sum(1 for alt in alternatives if len(alt.applications) == 2)
        assert pairs > singles  # combinations dominate the space

    def test_all_alternatives_are_valid_flows(self, small_purchases):
        config = ProcessingConfiguration(pattern_budget=2, max_points_per_pattern=2)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        for alternative in generator.generate_iter(small_purchases):
            assert is_valid(alternative.flow)

    def test_alternatives_are_structurally_distinct(self, small_purchases):
        config = ProcessingConfiguration(pattern_budget=2, max_points_per_pattern=2)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        alternatives = list(generator.generate_iter(small_purchases))
        signatures = [alt.flow.signature() for alt in alternatives]
        assert len(signatures) == len(set(signatures))
        # none of them equals the initial flow
        assert small_purchases.signature() not in signatures

    def test_initial_flow_is_never_mutated(self, small_purchases):
        before = small_purchases.signature()
        config = ProcessingConfiguration(pattern_budget=2, max_points_per_pattern=2)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        list(generator.generate_iter(small_purchases))
        assert small_purchases.signature() == before

    def test_max_alternatives_cap(self, small_purchases):
        config = ProcessingConfiguration(
            pattern_budget=3, max_points_per_pattern=4, max_alternatives=25
        )
        generator = AlternativeGenerator(default_palette(), ExhaustivePolicy(), config)
        alternatives = list(generator.generate_iter(small_purchases))
        assert len(alternatives) == 25

    def test_labels_are_sequential(self, small_purchases):
        config = ProcessingConfiguration(pattern_budget=1, max_points_per_pattern=1)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        alternatives = list(generator.generate_iter(small_purchases))
        assert [alt.label for alt in alternatives] == [
            f"ETL Flow {i + 1}" for i in range(len(alternatives))
        ]

    def test_describe_and_pattern_names(self, small_purchases):
        config = ProcessingConfiguration(pattern_budget=1, max_points_per_pattern=1)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        alternative = list(generator.generate_iter(small_purchases))[0]
        assert alternative.pattern_names[0] in alternative.describe()

    def test_generate_iter_is_repeatable(self, small_purchases):
        config = ProcessingConfiguration(pattern_budget=1, max_points_per_pattern=1)
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        first = [alt.flow.signature() for alt in generator.generate_iter(small_purchases)]
        again = [alt.flow.signature() for alt in generator.generate_iter(small_purchases)]
        assert first == again

    def test_thousands_of_alternatives_on_larger_flow(self, tpch_flow):
        # The paper claims thousands of alternative flows from processes
        # with tens of operators; with an exhaustive policy and budget 2
        # the TPC-H flow must exceed one thousand.
        config = ProcessingConfiguration(
            pattern_budget=2, max_points_per_pattern=12, max_alternatives=100_000
        )
        generator = AlternativeGenerator(
            default_palette(include_graph_level=False), ExhaustivePolicy(), config
        )
        alternatives = list(generator.generate_iter(tpch_flow))
        assert len(alternatives) > 1_000
