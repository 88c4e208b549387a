"""The incrementally maintained fingerprint against a from-scratch build.

:meth:`ETLGraph.fingerprint` caches its operation entries on
copy-on-write graphs and merges them from the copy parent's entries plus
the recorded delta.  For random pattern chains and random sequences of
graph-API mutations (relabel, remove, annotations set either way,
``mutable_operation`` edits of config, properties and schema made after
the fingerprint was read, writes to a parent after it was forked, pickle
round trips), every graph's fingerprint must equal
``tests/reference_fingerprint.py``, which ignores every cache.  A corpus
test pins the profile-cache key digests of the TPC-H alternatives to the
from-scratch ones, so caches written before the incremental fingerprint
stay valid.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.cache import key_digest
from repro.core import Planner, ProcessingConfiguration
from repro.etl.schema import DataType, Field, Schema
from repro.quality.estimator import flow_fingerprint
from repro.workloads import RandomFlowConfig, random_flow
from tests.property.test_cow_equivalence import _apply_sequence, _pick_sequences
from tests.reference_fingerprint import reference_cache_key, reference_fingerprint

_ACTIONS = (
    "fork",
    "relabel",
    "remove",
    "set_annotation",
    "assign_annotation",
    "config",
    "properties",
    "schema",
    "parent_write",
)

_action_sequences = st.lists(
    st.tuples(
        st.sampled_from(_ACTIONS),
        st.integers(min_value=0, max_value=1_000),
        st.booleans(),
    ),
    min_size=1,
    max_size=10,
)


def _pick(flow, number):
    ids = sorted(flow.operation_ids())
    return ids[number % len(ids)]


def _mutate(graphs, action, number, step):
    """Apply one graph-API mutation to the newest graph (``parent_write``: its parent)."""
    current = graphs[-1]
    if action == "fork":
        graphs.append(current.copy(mode="cow"))
    elif action == "relabel":
        current.relabel_operation(_pick(current, number), f"relabelled_{step}")
    elif action == "remove":
        if len(current) > 1:
            current.remove_operation(_pick(current, number))
    elif action == "set_annotation":
        current.set_annotation(f"key_{number % 3}", number)
    elif action == "assign_annotation":
        current.annotations[f"key_{number % 3}"] = -number
    elif action == "config":
        current.mutable_operation(_pick(current, number)).config["parallelism"] = number % 4 + 1
    elif action == "properties":
        op = current.mutable_operation(_pick(current, number))
        op.properties.selectivity = (number % 100) / 100
        op.properties.extra["tag"] = number
    elif action == "schema":
        op = current.mutable_operation(_pick(current, number))
        op.output_schema = Schema.of(Field(f"field_{number}", DataType.INTEGER))
    elif action == "parent_write":
        parent = graphs[-2]
        parent.mutable_operation(_pick(parent, number)).properties.fixed_cost = number


class TestFingerprintOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        picks=_pick_sequences,
        newest_first=st.booleans(),
    )
    def test_every_graph_of_a_pattern_chain(self, seed, operations, picks, newest_first):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        _, chain = _apply_sequence(flow, picks, "cow")
        # either order: a child read first captures its parent's entries
        for graph in reversed(chain) if newest_first else chain:
            assert graph.fingerprint() == reference_fingerprint(graph)
        assert flow_fingerprint(flow) == reference_fingerprint(flow)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        picks=_pick_sequences,
        actions=_action_sequences,
    )
    def test_graph_api_mutations(self, seed, picks, actions):
        flow = random_flow(RandomFlowConfig(operations=10, sources=2, seed=seed))
        _, chain = _apply_sequence(flow, picks, "cow")
        graphs = [chain[-1], chain[-1].copy(mode="cow")]
        graphs[-1].fingerprint()  # cached before any mutation
        for step, (action, number, read_after) in enumerate(actions):
            _mutate(graphs, action, number, step)
            if read_after:
                assert graphs[-1].fingerprint() == reference_fingerprint(graphs[-1])
        for graph in chain + graphs:
            assert graph.fingerprint() == reference_fingerprint(graph)

        restored = pickle.loads(pickle.dumps(graphs[-1]))
        assert restored.fingerprint() == reference_fingerprint(graphs[-1])
        _mutate([restored], "config", 3, len(actions))
        assert restored.fingerprint() == reference_fingerprint(restored)
        assert graphs[-1].fingerprint() == reference_fingerprint(graphs[-1])


class TestCacheKeyCorpus:
    def test_tpch_budget_two_key_digests_match_from_scratch(self, tpch_flow):
        planner = Planner(configuration=ProcessingConfiguration(pattern_budget=2))
        estimator = planner.estimator
        alternatives = planner.generate_alternatives(tpch_flow)
        assert len(alternatives) > 100
        for flow in [tpch_flow] + [alternative.flow for alternative in alternatives]:
            key = estimator.cache_key(flow)
            expected = reference_cache_key(estimator, flow)
            assert key == expected and repr(key) == repr(expected)
            assert key_digest(key) == key_digest(expected)
