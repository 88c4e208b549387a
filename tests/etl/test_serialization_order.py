"""Serialisation keeps every operation's adjacency order.

:meth:`ETLGraph.to_dict` and :func:`repro.io.yamlflow.flow_to_yaml` emit
edges through :meth:`ETLGraph.edges_for_replay`, so re-adding them gives
each operation the same successor order and the same predecessor order.
The executor takes join inputs, and the simulator sums inputs, in
predecessor order, so a flow that lost it would run differently after a
trip through the wire.
"""

from __future__ import annotations

import pytest

from repro.core import Planner, ProcessingConfiguration
from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.exec.executor import FlowExecutor
from repro.io.yamlflow import flow_from_yaml, flow_to_yaml
from repro.workloads import tpcds_sales_flow
from tests.conftest import twelve_cases


def _adjacency(flow: ETLGraph) -> list:
    return [
        (op_id, flow.predecessor_ids(op_id), flow.successor_ids(op_id))
        for op_id in flow.operation_ids()
    ]


@pytest.mark.parametrize(("build", "budget"), twelve_cases())
def test_alternatives_round_trip_with_their_adjacency_order(build, budget):
    flow = build()
    planner = Planner(configuration=ProcessingConfiguration(pattern_budget=budget))
    flows = [flow, *(alternative.flow for alternative in planner.stream_alternatives(flow))]
    for member in flows:
        rebuilt = ETLGraph.from_dict(member.to_dict())
        assert _adjacency(rebuilt) == _adjacency(member)
        assert rebuilt.to_dict() == member.to_dict()
    # The YAML dump shares the edge order; one plan's worth keeps it quick.
    if budget == 1:
        for member in flows:
            assert _adjacency(flow_from_yaml(flow_to_yaml(member))) == _adjacency(member)


def test_replay_order_reorders_only_when_needed(linear_flow):
    flow = ETLGraph(name="fan_in")
    for op_id, kind in (
        ("a", OperationKind.EXTRACT_TABLE),
        ("b", OperationKind.EXTRACT_TABLE),
        ("join", OperationKind.JOIN),
        ("load", OperationKind.LOAD_TABLE),
    ):
        flow.add_operation(Operation(kind, op_id=op_id))
    flow.add_edge("b", "join")
    flow.add_edge("a", "join")
    flow.add_edge("join", "load")
    # By source, "a -> join" comes first, but "join" reads "b" first.
    assert [(e.source, e.target) for e in flow.edges()][:2] == [("a", "join"), ("b", "join")]
    replay = [(e.source, e.target) for e in flow.edges_for_replay()]
    assert replay == [("b", "join"), ("a", "join"), ("join", "load")]
    assert ETLGraph.from_dict(flow.to_dict()).predecessor_ids("join") == ["b", "a"]

    assert linear_flow.edges_for_replay() == linear_flow.edges()


def test_executor_output_survives_a_round_trip():
    flow = tpcds_sales_flow(scale=0.02)
    rebuilt = ETLGraph.from_dict(flow.to_dict())
    before = FlowExecutor(data_seed=7).execute(flow)
    after = FlowExecutor(data_seed=7).execute(rebuilt)
    assert after.frame_bytes() == before.frame_bytes()
