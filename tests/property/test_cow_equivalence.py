"""Property-based equivalence of forked and rebuilt pattern application.

For random flows and random pattern sequences, applying the sequence on a
chain of forks (each step a ``copy()`` of the previous flow, sharing its
operations) and on a chain rebuilt from scratch after every step (each
step ``ETLGraph.from_dict(...to_dict())``, sharing nothing) must yield
indistinguishable results: identical signatures, fingerprints, validation
issues and (static) quality profiles.  A forked chain never changes the
flows it forked from.  Further properties assert that the alternative
generator agrees with the from-scratch reference in
``tests/reference_generator.py``, and the :func:`validate_delta` /
:func:`validate_flow` oracle agreement on the same random chains.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.alternatives import AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.policies import HeuristicPolicy
from repro.etl.graph import ETLGraph
from repro.etl.validation import validate_delta, validate_flow
from repro.patterns.registry import default_palette
from repro.quality.estimator import QualityEstimator
from repro.workloads import RandomFlowConfig, random_flow
from tests.conftest import static_registry
from tests.reference_generator import outcome, reference_generate

_PALETTE = list(default_palette())


def _rebuild(flow):
    """A flow equal to ``flow`` that shares no object and no history with it."""
    return ETLGraph.from_dict(flow.to_dict())


def _apply_sequence(flow, picks, rebuild=False):
    """Apply a pick sequence on a chain of forks of ``flow``.

    ``picks`` index into the (pattern, point) space; points are resolved
    against the *current* flow of the chain, exactly like the alternative
    generator's refresh step, so both chains resolve the same deployments.
    With ``rebuild`` every step's result is rebuilt from scratch instead
    of being forked further: no delta, no cache, no shared payload.
    """
    current = _rebuild(flow) if rebuild else flow.copy()
    chain = [current]
    for pattern_pick, point_pick in picks:
        pattern = _PALETTE[pattern_pick % len(_PALETTE)]
        points = pattern.find_application_points(current)
        if not points:
            continue
        point = points[point_pick % len(points)]
        current = pattern.apply(current, point)
        if rebuild:
            current = _rebuild(current)
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
        deep_result, _ = _apply_sequence(flow, picks, rebuild=True)
        cow_result, _ = _apply_sequence(flow, picks)
        assert deep_result.signature() == cow_result.signature()
        assert deep_result.fingerprint() == cow_result.fingerprint()
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
        deep_result, _ = _apply_sequence(flow, picks, rebuild=True)
        cow_result, _ = _apply_sequence(flow, picks)
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
        deep_result, _ = _apply_sequence(flow, picks, rebuild=True)
        cow_result, _ = _apply_sequence(flow, picks)
        estimator = QualityEstimator(registry=static_registry())
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
        _apply_sequence(flow, picks)
        assert flow.signature() == before

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        picks=_pick_sequences,
    )
    def test_forked_chain_leaves_every_parent_unchanged(self, seed, operations, picks):
        # Each flow of the chain is the parent of the next fork: read its
        # full identity as soon as it exists, and again once every later
        # fork has been written to.
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        snapshots = [(flow.to_dict(), flow.signature(), flow.fingerprint())]
        current = flow
        graphs = [flow]
        for pattern_pick, point_pick in picks:
            pattern = _PALETTE[pattern_pick % len(_PALETTE)]
            points = pattern.find_application_points(current)
            if not points:
                continue
            current = pattern.apply(current, points[point_pick % len(points)])
            graphs.append(current)
            snapshots.append((current.to_dict(), current.signature(), current.fingerprint()))
        for graph, snapshot in zip(graphs, snapshots):
            assert (graph.to_dict(), graph.signature(), graph.fingerprint()) == snapshot


class TestPrefixCacheEquivalence:
    """Prefix reuse and delta validation never change the alternative space.

    For random flows the generator and the from-scratch reference must
    produce the same alternative stream: same labels, same pattern
    applications, same signatures.
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
        reference, _ = reference_generate(generator, flow)
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
        _, chain = _apply_sequence(flow, picks)
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
        final, chain = _apply_sequence(flow, picks)
        # a draw that applies no pattern has no delta to compose: filter
        # it out rather than skipping the whole property
        assume(len(chain) >= 2)
        composed = chain[1].delta
        for child in chain[2:]:
            composed = composed.compose(child.delta)
        issues = validate_delta(final, composed, validate_flow(chain[0]))
        oracle = validate_flow(final)
        assert sorted(str(i) for i in issues) == sorted(str(i) for i in oracle)
