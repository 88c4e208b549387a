"""Tests of prefix-cached combination enumeration.

The lexicographic order of ``itertools.combinations`` makes consecutive
combinations share prefixes; :class:`AlternativeGenerator` reuses the
last chain's intermediate flows and issue lists instead of re-applying
the shared prefix from the base flow.  These tests pin down

* byte-identical alternative streams against the from-scratch reference
  in ``tests/reference_generator.py``, which rebuilds the initial flow
  from scratch for every combination (including the TPC-H acceptance run
  at ``pattern_budget=3`` with the >= 2x cut in pattern applications),
* the exact :class:`GenerationStats` reuse accounting on a synthetic
  palette small enough to count by hand,
* safety: cached prefix flows never leak into or between yielded
  alternatives, and interleaved lazy runs keep separate caches.
"""

from __future__ import annotations

import pytest

from repro.core.alternatives import AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.policies import ExhaustivePolicy, HeuristicPolicy
from repro.etl.validation import is_valid
from repro.patterns.base import ApplicationPointType, FlowComponentPattern
from repro.patterns.registry import PatternRegistry, default_palette
from tests.conftest import set_config
from tests.reference_generator import outcome, reference_generate


def _generator(*, palette=None, policy=None, **overrides):
    defaults = dict(pattern_budget=2, max_points_per_pattern=2)
    defaults.update(overrides)
    config = ProcessingConfiguration(**defaults)
    return AlternativeGenerator(palette or default_palette(), policy or HeuristicPolicy(), config)


def _generate(flow, **overrides):
    generator = _generator(**overrides)
    return list(generator.generate_iter(flow)), generator.last_stats


def _against_reference(flow, **overrides):
    """Generator and reference runs of one configuration.

    Returns ``(alternatives, stats, reference, reference_applications)``.
    """
    generator = _generator(**overrides)
    alternatives = list(generator.generate_iter(flow))
    reference, applied = reference_generate(generator, flow)
    return alternatives, generator.last_stats, reference, applied


class _FlagPattern(FlowComponentPattern):
    """Synthetic graph-level pattern setting one annotation.

    Every application point is the whole graph and every application is a
    pure annotation write, so a palette of N flag patterns produces a
    fully predictable enumeration: every combination is reasonable,
    valid and unique, and the per-combination application counts can be
    derived by hand.
    """

    point_type = ApplicationPointType.GRAPH

    def __init__(self, name: str) -> None:
        self.name = name
        self.description = f"sets the {name!r} flag"

    def apply(self, flow, point):
        new_flow = flow.copy()
        new_flow.set_annotation(self.name, True)
        new_flow.record_pattern(f"{self.name} @ entire flow")
        return new_flow


def _flag_palette(count: int) -> PatternRegistry:
    return PatternRegistry(_FlagPattern(f"flag_{i}") for i in range(count))


class TestPrefixEquivalence:
    def test_identical_streams_budget_two(self, small_purchases):
        alts, _, reference, _ = _against_reference(small_purchases)
        assert outcome(alts) == outcome(reference)

    def test_identical_streams_budget_three(self, small_purchases):
        alts, _, reference, _ = _against_reference(
            small_purchases, pattern_budget=3, max_points_per_pattern=3
        )
        assert outcome(alts) == outcome(reference)

    def test_identical_with_exhaustive_policy(self, linear_flow):
        """Every valid point of every pattern, on a flow small enough to
        enumerate completely at budget 3."""
        alts, _, reference, _ = _against_reference(
            linear_flow, policy=ExhaustivePolicy(), pattern_budget=3
        )
        assert len(alts) > 20
        assert outcome(alts) == outcome(reference)

    def test_tpch_acceptance_two_x_fewer_applications(self, tpch_flow):
        """>= 2x fewer pattern applications than the from-scratch
        reference at budget 3 on TPC-H, byte-identical alternative sets."""
        knobs = dict(pattern_budget=3, max_points_per_pattern=3, max_alternatives=1500)
        alts, stats, reference, applied = _against_reference(tpch_flow, **knobs)
        assert outcome(alts) == outcome(reference)
        assert applied >= 2 * stats.patterns_applied, (
            f"{applied} from-scratch vs {stats.patterns_applied} cached applications"
        )
        assert stats.prefix_steps_reused > 0

    def test_respects_max_alternatives_and_labels(self, small_purchases):
        alts, _ = _generate(small_purchases, max_alternatives=5)
        assert len(alts) == 5
        assert [a.label for a in alts] == [f"ETL Flow {i}" for i in range(1, 6)]


class TestPrefixExactCounts:
    """Hand-derived accounting on a palette of four flag patterns.

    Four graph-level deployments ``d0..d3`` at ``pattern_budget=3``
    enumerate 4 + 6 + 4 = 14 combinations, all reasonable, valid and
    unique.  The from-scratch reference replays every full chain:
    4*1 + 6*2 + 4*3 = 28 applications.  With the cache, walking the
    lexicographic order by hand gives 22 applications, 5 combinations
    reusing a prefix, and 6 reused steps:

    ========= ======================== ======= ======
    combo     cached prefix reused     applies reused
    ========= ======================== ======= ======
    size 1    (4 combos, none cached)        4      0
    (0,1)     --                             2      0
    (0,2)     (0,)                           1      1
    (0,3)     (0,)                           1      1
    (1,2)     --                             2      0
    (1,3)     (1,)                           1      1
    (2,3)     --                             2      0
    (0,1,2)   --                             3      0
    (0,1,3)   (0, 1)                         1      2
    (0,2,3)   (0,)                           2      1
    (1,2,3)   --                             3      0
    ========= ======================== ======= ======
    """

    EXPECTED_COMBOS = 14
    EXPECTED_APPLIED_UNCACHED = 28
    EXPECTED_APPLIED_CACHED = 22
    EXPECTED_PREFIX_HITS = 5
    EXPECTED_STEPS_REUSED = 6

    def test_exact_reuse_counters(self, linear_flow):
        alts, stats, reference, _ = _against_reference(
            linear_flow,
            palette=_flag_palette(4),
            policy=ExhaustivePolicy(),
            pattern_budget=3,
        )
        assert outcome(alts) == outcome(reference)
        assert len(alts) == self.EXPECTED_COMBOS
        assert stats.combinations_tried == self.EXPECTED_COMBOS
        assert stats.yielded == self.EXPECTED_COMBOS
        assert stats.duplicates_pruned == 0
        assert stats.invalid_discarded == 0
        assert stats.patterns_applied == self.EXPECTED_APPLIED_CACHED
        assert stats.prefix_hits == self.EXPECTED_PREFIX_HITS
        assert stats.prefix_steps_reused == self.EXPECTED_STEPS_REUSED

    def test_exact_counts_uncached(self, linear_flow):
        alts, stats, reference, applied = _against_reference(
            linear_flow,
            palette=_flag_palette(4),
            policy=ExhaustivePolicy(),
            pattern_budget=3,
        )
        assert outcome(alts) == outcome(reference)
        assert len(reference) == self.EXPECTED_COMBOS
        assert applied == self.EXPECTED_APPLIED_UNCACHED
        assert stats.patterns_applied == self.EXPECTED_APPLIED_CACHED

    def test_apply_validation_split_reported(self, small_purchases):
        _, stats = _generate(small_purchases, pattern_budget=2)
        assert stats.apply_seconds > 0
        assert stats.validation_seconds > 0
        assert stats.wall_seconds > 0
        payload = stats.as_dict()
        for key in (
            "patterns_applied",
            "prefix_hits",
            "prefix_steps_reused",
            "apply_seconds",
            "validation_seconds",
        ):
            assert key in payload
        assert payload["patterns_applied"] == stats.patterns_applied


class TestPrefixSafety:
    def test_alternatives_stay_self_contained(self, small_purchases):
        """Mutating one yielded alternative must not bleed into any other
        (cached prefix flows are shared internally but never yielded)."""
        alts, _ = _generate(small_purchases, pattern_budget=3, max_points_per_pattern=3)
        assert all(is_valid(a.flow) for a in alts)
        first = alts[0].flow
        target = first.operation_ids()[0]
        set_config(first, target, marker=True)
        assert "marker" not in small_purchases.operation(target).config
        for other in alts[1:]:
            if target in other.flow:
                assert "marker" not in other.flow.operation(target).config

    def test_base_flow_untouched(self, small_purchases):
        before = small_purchases.signature()
        _generate(small_purchases, pattern_budget=3)
        assert small_purchases.signature() == before

    def test_interleaved_lazy_runs_have_separate_caches(self, small_purchases, tpch_flow):
        generator = _generator()
        first = generator.generate_iter(small_purchases)
        second = generator.generate_iter(tpch_flow)
        interleaved = []
        for _ in range(5):
            interleaved.append(next(first))
            interleaved.append(next(second))
        interleaved.extend(first)
        interleaved.extend(second)
        assert all(is_valid(a.flow) for a in interleaved)
        solo, _ = reference_generate(generator, small_purchases)
        purchases_part = [
            a for a in interleaved if a.flow.name.startswith(small_purchases.name)
        ]
        assert outcome(purchases_part) == outcome(solo)
