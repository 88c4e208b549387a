"""Property-based equivalence of deep and copy-on-write pattern application.

For random flows and random pattern sequences, applying the sequence on a
``copy_mode="deep"`` chain and on a ``copy_mode="cow"`` chain must yield
indistinguishable results: identical signatures, identical validation
issues, identical (static) quality profiles.  Further properties assert
that the alternative generator agrees with the from-scratch reference in
``tests/reference_generator.py``, and the :func:`validate_delta` /
:func:`validate_flow` oracle agreement on the same random chains.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.alternatives import AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.policies import HeuristicPolicy
from repro.etl.validation import validate_delta, validate_flow
from repro.patterns.registry import default_palette
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.workloads import RandomFlowConfig, random_flow
from tests.reference_generator import outcome, reference_generate

_PALETTE = list(default_palette())


def _apply_sequence(flow, picks, mode):
    """Apply a pick sequence on a chain of copies in the given copy mode.

    ``picks`` index into the (pattern, point) space; points are resolved
    against the *current* flow of the chain, exactly like the alternative
    generator's refresh step, so both modes resolve the same deployments.
    """
    current = flow.copy(mode=mode)
    chain = [current]
    for pattern_pick, point_pick in picks:
        pattern = _PALETTE[pattern_pick % len(_PALETTE)]
        points = pattern.find_application_points(current)
        if not points:
            continue
        point = points[point_pick % len(points)]
        current = pattern.apply(current, point)
        chain.append(current)
    return current, chain


_pick_sequences = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63)),
    min_size=1,
    max_size=4,
)


class TestCowEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=18),
        picks=_pick_sequences,
    )
    def test_same_signature_and_structure(self, seed, operations, picks):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        deep_result, _ = _apply_sequence(flow, picks, "deep")
        cow_result, _ = _apply_sequence(flow, picks, "cow")
        assert deep_result.signature() == cow_result.signature()
        assert deep_result.structurally_equal(cow_result)
        assert deep_result.annotations == cow_result.annotations

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        picks=_pick_sequences,
    )
    def test_same_validation_issues(self, seed, operations, picks):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        deep_result, _ = _apply_sequence(flow, picks, "deep")
        cow_result, _ = _apply_sequence(flow, picks, "cow")
        deep_issues = sorted(str(i) for i in validate_flow(deep_result))
        cow_issues = sorted(str(i) for i in validate_flow(cow_result))
        assert deep_issues == cow_issues

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        operations=st.integers(min_value=8, max_value=14),
        picks=_pick_sequences,
    )
    def test_same_static_quality_profile(self, seed, operations, picks):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        deep_result, _ = _apply_sequence(flow, picks, "deep")
        cow_result, _ = _apply_sequence(flow, picks, "cow")
        estimator = QualityEstimator(settings=EstimationSettings(use_simulation=False))
        deep_profile = estimator.evaluate(deep_result)
        cow_profile = estimator.evaluate(cow_result)
        assert deep_profile.scores == cow_profile.scores
        assert {k: v.value for k, v in deep_profile.values.items()} == {
            k: v.value for k, v in cow_profile.values.items()
        }

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        picks=_pick_sequences,
    )
    def test_original_flow_never_mutated(self, seed, operations, picks):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        before = flow.signature()
        _apply_sequence(flow, picks, "cow")
        assert flow.signature() == before


class TestPrefixCacheEquivalence:
    """Prefix reuse and delta validation never change the alternative space.

    For random flows the generator, the deep-copy reference and the
    copy-on-write reference must produce the same alternative stream:
    same labels, same pattern applications, same signatures.
    """

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=14),
        budget=st.integers(min_value=1, max_value=3),
    )
    def test_all_arms_agree(self, seed, operations, budget):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        config = ProcessingConfiguration(
            pattern_budget=budget, max_points_per_pattern=2, max_alternatives=150
        )
        generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), config)
        generated = outcome(list(generator.generate_iter(flow)))
        for mode in ("deep", "cow"):
            reference, _ = reference_generate(generator, flow, copy_mode=mode)
            assert outcome(reference) == generated


class TestValidateDeltaOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        picks=_pick_sequences,
    )
    def test_stepwise_chain_agrees_with_oracle(self, seed, operations, picks):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        _, chain = _apply_sequence(flow, picks, "cow")
        issues = validate_flow(chain[0])
        for parent, child in zip(chain, chain[1:]):
            assert child.derived_from(parent)
            issues = validate_delta(child, child.delta, issues)
            oracle = validate_flow(child)
            assert sorted(str(i) for i in issues) == sorted(str(i) for i in oracle)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        picks=_pick_sequences,
    )
    def test_composed_chain_agrees_with_oracle(self, seed, operations, picks):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        final, chain = _apply_sequence(flow, picks, "cow")
        # a draw that applies no pattern has no delta to compose: filter
        # it out rather than skipping the whole property
        assume(len(chain) >= 2)
        composed = chain[1].delta
        for child in chain[2:]:
            composed = composed.compose(child.delta)
        issues = validate_delta(final, composed, validate_flow(chain[0]))
        oracle = validate_flow(final)
        assert sorted(str(i) for i in issues) == sorted(str(i) for i in oracle)
