"""The structure queries of :class:`ETLGraph` against networkx, after every mutation.

:meth:`ETLGraph.topological_ids` and the longest path are memoized per
structure version, ``RecoveryCoverage`` / ``CleansingCoverage`` derive
their reachability facts in one pass over that order, and reachability,
distances and connectivity are walks over the graph's adjacency dicts.
For random flows, random pattern chains and random sequences of every
mutation kind -- ``add_operation``, ``add_edge`` (cycle-closing targets
included), ``remove_edge``, ``remove_operation``, ``relabel_operation``,
``update_operation`` (kinds alone, or kinds and properties) and
``set_edge_schema`` -- on forked and rebuilt chains (the parent written
after a fork included) and after a pickle round trip, each answer must
equal a from-scratch networkx computation (``tests/reference_graph.py``)
read before and after the mutation.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.quality.data_quality import CleansingCoverage
from repro.quality.reliability import RecoveryCoverage
from repro.workloads import RandomFlowConfig, random_flow
from tests.property.test_cow_equivalence import _apply_sequence, _pick_sequences
from tests.reference_graph import (
    reference_digraph,
    reference_distance_from_sources,
    reference_distance_to_sinks,
    reference_longest_path,
)

_CLEANSING_KINDS = set(CleansingCoverage._CLEANSING_KINDS)


def reference_recovery_coverage(flow) -> float:
    """``RecoveryCoverage`` with one ``nx.ancestors`` query per operation."""
    graph = reference_digraph(flow)
    checkpoints = {op.op_id for op in flow.operations() if op.kind is OperationKind.CHECKPOINT}
    if not checkpoints:
        return 0.0
    total_weight = 0.0
    protected_weight = 0.0
    for op in flow.operations():
        rows = float(op.config.get("rows", 1000))
        weight = op.properties.fixed_cost + op.properties.cost_per_tuple * rows
        total_weight += weight
        if nx.ancestors(graph, op.op_id) & checkpoints:
            protected_weight += weight
    if total_weight <= 0:
        return 0.0
    return protected_weight / total_weight


def reference_cleansing_coverage(flow) -> float:
    """``CleansingCoverage`` with one ``nx.descendants`` query per source."""
    graph = reference_digraph(flow)
    sources = [n for n in graph.nodes() if graph.in_degree(n) == 0]
    if not sources:
        return 0.0
    cleansing = {op.op_id for op in flow.operations() if op.kind in _CLEANSING_KINDS}
    if not cleansing:
        return 0.0
    covered = sum(1 for source in sources if nx.descendants(graph, source) & cleansing)
    return covered / len(sources)


def assert_matches_networkx(flow) -> None:
    graph = reference_digraph(flow)
    order = tuple(nx.topological_sort(graph))
    assert flow.topological_ids() == order
    assert [op.op_id for op in flow.topological_order()] == list(order)
    expected_longest = nx.dag_longest_path_length(graph) if len(flow) else 0
    assert flow.longest_path_length() == expected_longest
    assert type(flow.longest_path_length()) is int
    assert [op.op_id for op in flow.longest_path()] == reference_longest_path(flow)
    assert flow.is_connected() == (not len(flow) or nx.is_weakly_connected(graph))
    assert [op.op_id for op in flow.sources()] == [
        n for n in graph.nodes() if graph.in_degree(n) == 0
    ]
    assert [op.op_id for op in flow.sinks()] == [
        n for n in graph.nodes() if graph.out_degree(n) == 0
    ]
    assert flow.edge_count == graph.number_of_edges()
    for op_id in flow.operation_ids():
        # Edge insertion order, which a networkx copy does not keep for
        # predecessors: compare against the Operation-list accessors.
        assert flow.predecessor_ids(op_id) == [op.op_id for op in flow.predecessors(op_id)]
        assert flow.successor_ids(op_id) == [op.op_id for op in flow.successors(op_id)]
        assert flow.upstream_of(op_id) == nx.ancestors(graph, op_id)
        assert flow.downstream_of(op_id) == nx.descendants(graph, op_id)
        assert flow.distance_from_sources(op_id) == reference_distance_from_sources(graph, op_id)
        assert flow.distance_to_sinks(op_id) == reference_distance_to_sinks(graph, op_id)
    if len(flow):
        assert RecoveryCoverage().compute(flow) == reference_recovery_coverage(flow)
        assert CleansingCoverage().compute(flow) == reference_cleansing_coverage(flow)


_ACTIONS = (
    "add_operation",
    "add_edge",
    "remove_edge",
    "remove_operation",
    "relabel_operation",
    "update_operation",
    "set_edge_schema",
    "update_kind",
    "fork",
    "parent_write",
)

_NEW_KINDS = (
    OperationKind.CHECKPOINT,
    OperationKind.DEDUPLICATE,
    OperationKind.FILTER,
    OperationKind.LOAD_TABLE,
    OperationKind.EXTRACT_TABLE,
)

_action_sequences = st.lists(
    st.tuples(
        st.sampled_from(_ACTIONS),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=1_000),
    ),
    min_size=1,
    max_size=12,
)


def _pick(ids, number):
    ids = sorted(ids)
    return ids[number % len(ids)] if ids else None


def _adjacency(flow):
    """Everything an edge insertion could touch, in the flow's own orders."""
    return [
        (
            op_id,
            flow.predecessor_ids(op_id),
            [flow.edge(op_id, target) for target in flow.successor_ids(op_id)],
        )
        for op_id in flow.operation_ids()
    ]


def _successor_lists(graph):
    return [(node, list(graph.successors(node))) for node in graph]


def _mutate(graphs, action, first, second, step) -> None:
    """Apply one mutation to the newest graph (``parent_write``: its parent)."""
    flow = graphs[-1]
    ids = flow.operation_ids()
    edges = sorted((e.source, e.target) for e in flow.edges())
    if action == "add_operation":
        kind = _NEW_KINDS[first % len(_NEW_KINDS)]
        flow.add_operation(Operation(kind, op_id=f"added_{step}"))
        if ids:
            flow.add_edge(_pick(ids, second), f"added_{step}")
    elif action == "add_edge" and len(ids) > 1:
        source = _pick(ids, first)
        target = _pick([op_id for op_id in ids if op_id != source], second)
        closes_cycle = nx.has_path(reference_digraph(flow), target, source)
        before = _adjacency(flow)
        try:
            flow.add_edge(source, target)
        except ValueError:
            assert closes_cycle
            assert _adjacency(flow) == before
        else:
            assert not closes_cycle
    elif action == "remove_edge" and edges:
        flow.remove_edge(*edges[first % len(edges)])
    elif action == "remove_operation" and len(ids) > 1:
        flow.remove_operation(_pick(ids, first))
    elif action == "relabel_operation" and ids:
        old_id, new_id = _pick(ids, first), f"relabelled_{step}"
        expected = nx.relabel_nodes(reference_digraph(flow), {old_id: new_id}, copy=False)
        flow.relabel_operation(old_id, new_id)
        # networkx's in-place order: the node and its edges move to the end.
        assert _successor_lists(reference_digraph(flow)) == _successor_lists(expected)
    elif action == "update_operation" and ids:
        op = flow.operation(_pick(ids, first))
        flow.update_operation(
            op.op_id,
            kind=_NEW_KINDS[second % len(_NEW_KINDS)],
            properties=replace(op.properties, cost_per_tuple=second / 100),
        )
    elif action == "set_edge_schema" and edges:
        source, target = edges[first % len(edges)]
        flow.set_edge_schema(source, target, Schema.of(Field(f"f_{step}", DataType.STRING)))
    elif action == "update_kind" and ids:
        # Kinds alone: the coverage measures must read the new ones.
        flow.update_operation(_pick(ids, first), kind=_NEW_KINDS[second % len(_NEW_KINDS)])
    elif action == "fork":
        graphs.append(flow.copy())
    elif action == "parent_write" and len(graphs) > 1:
        parent = graphs[-2]
        parent_ids = parent.operation_ids()
        if len(parent_ids) > 1:
            parent.remove_operation(_pick(parent_ids, first))


class TestStructureMemoOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=24),
        picks=_pick_sequences,
    )
    def test_pattern_chains(self, seed, operations, picks):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        for rebuild in (True, False):
            _, chain = _apply_sequence(flow, picks, rebuild=rebuild)
            for graph in chain:
                assert_matches_networkx(graph)
        assert_matches_networkx(flow)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        rebuild=st.booleans(),
        picks=_pick_sequences,
        actions=_action_sequences,
    )
    def test_every_mutation_kind(self, seed, rebuild, picks, actions):
        flow = random_flow(RandomFlowConfig(operations=10, sources=2, seed=seed))
        _, chain = _apply_sequence(flow, picks, rebuild=rebuild)
        graphs = [chain[-1]]
        for step, (action, first, second) in enumerate(actions):
            for graph in graphs:
                assert_matches_networkx(graph)  # memo read before the mutation
            _mutate(graphs, action, first, second, step)
            for graph in graphs:
                assert_matches_networkx(graph)

        for graph in graphs:
            restored = pickle.loads(pickle.dumps(graph))
            assert restored.topological_ids() == graph.topological_ids()
            assert_matches_networkx(restored)
            _mutate([restored], "add_operation", 0, 0, len(actions))
            assert_matches_networkx(restored)
