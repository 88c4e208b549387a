"""The incrementally maintained fingerprint against a from-scratch build.

:meth:`ETLGraph.fingerprint` caches its per-operation digests and, on a
copy, merges them from the copy parent's entries plus the recorded
delta.  For random pattern chains and random sequences of graph-API
mutations (relabel, remove, annotations set either way,
``update_operation`` changes of config, properties and schema made after
the fingerprint was read, writes to a parent after it was forked, pickle
round trips), every graph's fingerprint must equal
``tests/reference_fingerprint.py``'s digest, which ignores every cache.
Deltas that touch no transition (annotation-only, operation-only) reuse
the parent's signature tuples and still match a from-scratch build.
Corpus tests pin the profile-cache keys of the TPC-H alternatives to the
from-scratch ones, and check that hashing loses no distinction: as many
distinct digests as distinct from-scratch fingerprint tuples, also for
operation ids built to blur the boundaries of a textual encoding.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import pytest

from repro.core import Planner, ProcessingConfiguration
from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.workloads import RandomFlowConfig, random_flow, tpch_refresh_flow
from tests.property.test_cow_equivalence import _apply_sequence, _pick_sequences
from tests.reference_fingerprint import (
    reference_cache_key,
    reference_digest,
    reference_fingerprint,
)

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
        graphs.append(current.copy())
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
        op = current.operation(_pick(current, number))
        current.update_operation(op.op_id, config={**op.config, "parallelism": number % 4 + 1})
    elif action == "properties":
        op = current.operation(_pick(current, number))
        properties = replace(
            op.properties,
            selectivity=(number % 100) / 100,
            extra={**op.properties.extra, "tag": number},
        )
        current.update_operation(op.op_id, properties=properties)
    elif action == "schema":
        current.update_operation(
            _pick(current, number),
            output_schema=Schema.of(Field(f"field_{number}", DataType.INTEGER)),
        )
    elif action == "parent_write":
        parent = graphs[-2]
        op = parent.operation(_pick(parent, number))
        parent.update_operation(op.op_id, properties=replace(op.properties, fixed_cost=number))


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
        _, chain = _apply_sequence(flow, picks)
        # either order: a child read first captures its parent's entries
        for graph in reversed(chain) if newest_first else chain:
            assert graph.fingerprint() == reference_digest(graph)
        assert flow.fingerprint() == reference_digest(flow)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        picks=_pick_sequences,
        actions=_action_sequences,
    )
    def test_graph_api_mutations(self, seed, picks, actions):
        flow = random_flow(RandomFlowConfig(operations=10, sources=2, seed=seed))
        _, chain = _apply_sequence(flow, picks)
        graphs = [chain[-1], chain[-1].copy()]
        graphs[-1].fingerprint()  # cached before any mutation
        for step, (action, number, read_after) in enumerate(actions):
            _mutate(graphs, action, number, step)
            if read_after:
                assert graphs[-1].fingerprint() == reference_digest(graphs[-1])
        for graph in chain + graphs:
            assert graph.fingerprint() == reference_digest(graph)

        restored = pickle.loads(pickle.dumps(graphs[-1]))
        assert restored.fingerprint() == reference_digest(graphs[-1])
        _mutate([restored], "config", 3, len(actions))
        assert restored.fingerprint() == reference_digest(restored)
        assert graphs[-1].fingerprint() == reference_digest(graphs[-1])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        picks=_pick_sequences,
        actions=st.lists(
            st.tuples(
                st.sampled_from(
                    ("set_annotation", "assign_annotation", "config", "properties", "schema")
                ),
                st.integers(min_value=0, max_value=1_000),
            ),
            min_size=1,
            max_size=6,
        ),
        parent_write=st.booleans(),
    )
    def test_deltas_without_edge_changes_reuse_the_parent(
        self, seed, picks, actions, parent_write
    ):
        """Annotation-only and operation-only deltas against a from-scratch build."""
        flow = random_flow(RandomFlowConfig(operations=10, sources=2, seed=seed))
        _, chain = _apply_sequence(flow, picks)
        parent = chain[-1]
        parent_nodes, parent_edges, _ = parent.signature()
        graphs = [parent, parent.copy()]
        if parent_write:
            _mutate(graphs, "parent_write", seed, 0)
        for step, (action, number) in enumerate(actions):
            _mutate(graphs, action, number, step)
        child = graphs[-1]
        fresh = ETLGraph.from_dict(child.to_dict())
        nodes, edges, _ = child.signature()
        assert child.signature() == fresh.signature()
        assert child.fingerprint() == reference_digest(child) == fresh.fingerprint()
        if not parent_write:
            assert edges is parent_edges
            if not child.delta.ops_modified:
                assert nodes is parent_nodes
        assert parent.fingerprint() == reference_digest(parent)


#: Operation ids that blur the boundaries of a textual encoding: quotes,
#: brackets, separators and digit runs shaped like the digest header.
_ADVERSARIAL_IDS = (
    "a", "b", "a,b", "b,c", "c", "(a", "a')", "'", ",", ":", "1:2:", "12", "1", "2:"
)


def _adversarial_flows():
    """Small flows over :data:`_ADVERSARIAL_IDS`, with and without transitions."""
    schema = Schema.of(Field("id", DataType.INTEGER))

    def build(ids, edges, annotations=()):
        flow = ETLGraph("adversarial")
        for op_id in ids:
            flow.add_operation(Operation(OperationKind.NOOP, op_id=op_id, output_schema=schema))
        for source, target in edges:
            flow.add_edge(source, target)
        for key, value in annotations:
            flow.set_annotation(key, value)
        return flow

    flows = [build([op_id], []) for op_id in _ADVERSARIAL_IDS]
    flows += [
        build([source, target], [(source, target)])
        for source, target in itertools.permutations(_ADVERSARIAL_IDS, 2)
    ]
    flows += [
        build(["a", "b,c", "a,b", "c"], [("a", "b,c")]),
        build(["a", "b,c", "a,b", "c"], [("a,b", "c")]),
        build(["1", "2:", "12", ":"], [("1", "2:")]),
        build(["1", "2:", "12", ":"], [("12", ":")]),
        build(["a", "b", "(a"], [], [("x", "a'), ('b")]),
        build(["a", "b", "(a"], [("a", "b")], [("x", "")]),
    ]
    return flows


def test_adversarial_ids_keep_distinct_digests():
    flows = _adversarial_flows()
    contents = {reference_fingerprint(flow) for flow in flows}
    assert len(contents) == len(flows)
    # a separator-joined edge text does blur on these ids ...
    assert len({",".join(itertools.chain(*reference_fingerprint(f)[1])) for f in flows}) < len(
        flows
    )
    # ... the NUL-terminated byte encoding does not
    digests = {flow.fingerprint() for flow in flows}
    assert len(digests) == len(flows)
    for flow in flows:
        assert flow.fingerprint() == reference_digest(flow)
        assert flow.copy().fingerprint() == flow.fingerprint()



def _budget_two_corpus(flow):
    planner = Planner(configuration=ProcessingConfiguration(pattern_budget=2))
    alternatives = list(planner.generator.generate_iter(flow))
    assert len(alternatives) > 100
    return planner.estimator, [flow] + [alternative.flow for alternative in alternatives]


class TestCacheKeyCorpus:
    def test_tpch_budget_two_keys_match_from_scratch(self, tpch_flow):
        estimator, flows = _budget_two_corpus(tpch_flow)
        for flow in flows:
            key = estimator.cache_key(flow)
            assert key == reference_cache_key(estimator, flow)
            assert len(key) == 64 and key == key.lower()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: tpch_refresh_flow(),
            lambda: random_flow(RandomFlowConfig(operations=16, seed=1)),
        ],
        ids=["tpch", "random16"],
    )
    def test_budget_two_digests_keep_every_distinction(self, build):
        _, flows = _budget_two_corpus(build())
        tuples = {reference_fingerprint(flow) for flow in flows}
        digests = {flow.fingerprint() for flow in flows}
        assert len(digests) == len(tuples)
