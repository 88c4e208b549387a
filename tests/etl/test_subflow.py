"""Unit tests for sub-flow grafting (the mechanism behind pattern deployment)."""

import pytest

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.etl.subflow import insert_on_edge, replace_node, wrap_graph
from repro.etl.validation import is_valid


def _single_op_subflow(kind=OperationKind.FILTER_NULLS, name="cleanser") -> ETLGraph:
    subflow = ETLGraph(name="sub")
    subflow.add_operation(Operation(kind, op_id=name))
    return subflow


def _chain_subflow() -> ETLGraph:
    subflow = ETLGraph(name="chain_sub")
    subflow.add_operation(Operation(OperationKind.CHECKPOINT, op_id="persist"))
    subflow.add_operation(Operation(OperationKind.EXTRACT_SAVEPOINT, op_id="resume"))
    subflow.add_edge("persist", "resume")
    return subflow


class TestInsertOnEdge:
    def test_basic_insertion(self, linear_flow):
        edge = linear_flow.edges()[1]
        new_flow, insertion = insert_on_edge(
            linear_flow, edge.source, edge.target, _single_op_subflow()
        )
        assert new_flow.node_count == linear_flow.node_count + 1
        assert not new_flow.has_edge(edge.source, edge.target)
        added = insertion.added_operations[0]
        assert new_flow.has_edge(edge.source, added)
        assert new_flow.has_edge(added, edge.target)
        assert is_valid(new_flow)

    def test_host_flow_is_not_mutated(self, linear_flow):
        before = linear_flow.signature()
        edge = linear_flow.edges()[0]
        insert_on_edge(linear_flow, edge.source, edge.target, _single_op_subflow())
        assert linear_flow.signature() == before

    def test_schema_propagates_to_grafted_operation(self, linear_flow):
        edge = linear_flow.edges()[1]
        new_flow, insertion = insert_on_edge(
            linear_flow, edge.source, edge.target, _single_op_subflow()
        )
        grafted = new_flow.operation(insertion.added_operations[0])
        assert grafted.output_schema == edge.schema

    def test_multi_operation_subflow(self, linear_flow):
        edge = linear_flow.edges()[1]
        new_flow, insertion = insert_on_edge(
            linear_flow, edge.source, edge.target, _chain_subflow()
        )
        assert len(insertion.added_operations) == 2
        assert new_flow.node_count == linear_flow.node_count + 2
        assert is_valid(new_flow)

    def test_subflow_template_is_left_untouched(self, linear_flow):
        edge = linear_flow.edges()[0]
        subflow = _single_op_subflow()
        template = subflow.operation("cleanser")
        new_flow, insertion = insert_on_edge(linear_flow, edge.source, edge.target, subflow)
        assert subflow.operation("cleanser") is template
        assert len(template.output_schema) == 0
        grafted = new_flow.operation(insertion.added_operations[0])
        assert grafted.op_id != template.op_id
        assert grafted.output_schema == edge.schema
        assert new_flow.delta.ops_added == set(insertion.added_operations)

    def test_missing_edge_raises(self, linear_flow):
        with pytest.raises(KeyError):
            insert_on_edge(linear_flow, "nope", "load", _single_op_subflow())

    def test_subflow_with_two_exits_rejected(self, linear_flow):
        bad = ETLGraph("bad")
        bad.add_operation(Operation(OperationKind.SPLIT, op_id="s"))
        bad.add_operation(Operation(OperationKind.DERIVE, op_id="a"))
        bad.add_operation(Operation(OperationKind.DERIVE, op_id="b"))
        bad.add_edge("s", "a")
        bad.add_edge("s", "b")
        edge = linear_flow.edges()[0]
        with pytest.raises(ValueError, match="one entry and one exit"):
            insert_on_edge(linear_flow, edge.source, edge.target, bad)

    def test_lineage_recorded(self, linear_flow):
        edge = linear_flow.edges()[0]
        new_flow, _ = insert_on_edge(
            linear_flow, edge.source, edge.target, _single_op_subflow(), description="graft X"
        )
        assert "graft X" in new_flow.applied_patterns

    def test_repeated_grafts_get_unique_identifiers(self, linear_flow):
        edge = linear_flow.edges()[0]
        flow1, ins1 = insert_on_edge(linear_flow, edge.source, edge.target, _single_op_subflow())
        # graft again on the edge between the source and the first grafted op
        flow2, ins2 = insert_on_edge(flow1, edge.source, ins1.added_operations[0], _single_op_subflow())
        assert len(set(flow2.operation_ids())) == flow2.node_count


class TestReplaceNode:
    def test_basic_replacement(self, branching_flow):
        target = "enrich_" if "enrich_" in branching_flow else None
        # find the derive op by name
        derive = next(op for op in branching_flow.operations() if op.name == "enrich")
        sub = ETLGraph("replacement")
        sub.add_operation(Operation(OperationKind.PARTITION, op_id="p"))
        sub.add_operation(Operation(OperationKind.DERIVE, op_id="d1"))
        sub.add_operation(Operation(OperationKind.MERGE, op_id="m"))
        sub.add_edge("p", "d1")
        sub.add_edge("d1", "m")
        new_flow, insertion = replace_node(branching_flow, derive.op_id, sub)
        assert derive.op_id not in new_flow
        assert new_flow.node_count == branching_flow.node_count + 2
        assert insertion.removed_operations == (derive.op_id,)
        assert is_valid(new_flow)

    def test_incident_edges_rewired(self, linear_flow):
        derive = next(op for op in linear_flow.operations() if op.kind is OperationKind.DERIVE)
        preds = [p.op_id for p in linear_flow.predecessors(derive.op_id)]
        succs = [s.op_id for s in linear_flow.successors(derive.op_id)]
        sub = _single_op_subflow(OperationKind.DERIVE, "new_derive")
        new_flow, insertion = replace_node(linear_flow, derive.op_id, sub)
        grafted = insertion.added_operations[0]
        for pred in preds:
            assert new_flow.has_edge(pred, grafted)
        for succ in succs:
            assert new_flow.has_edge(grafted, succ)

    def test_schema_less_operations_inherit_the_replaced_schema(self, linear_flow):
        derive = next(op for op in linear_flow.operations() if op.kind is OperationKind.DERIVE)
        keep = Schema.of(Field("only", DataType.STRING))
        sub = ETLGraph(name="sub")
        sub.add_operation(Operation(OperationKind.DERIVE, op_id="inherits"))
        sub.add_operation(Operation(OperationKind.NOOP, op_id="keeps", output_schema=keep))
        sub.add_edge("inherits", "keeps")
        new_flow, insertion = replace_node(linear_flow, derive.op_id, sub)
        inherits, keeps = (new_flow.operation(op_id) for op_id in insertion.added_operations)
        assert inherits.output_schema == derive.output_schema
        assert keeps.output_schema == keep

    def test_missing_node_raises(self, linear_flow):
        with pytest.raises(KeyError):
            replace_node(linear_flow, "ghost", _single_op_subflow())

    def test_host_not_mutated(self, linear_flow):
        before = linear_flow.signature()
        derive = next(op for op in linear_flow.operations() if op.kind is OperationKind.DERIVE)
        replace_node(linear_flow, derive.op_id, _single_op_subflow(OperationKind.DERIVE))
        assert linear_flow.signature() == before


class TestWrapGraph:
    def test_annotation_applied_to_copy(self, linear_flow):
        new_flow, insertion = wrap_graph(linear_flow, "encryption", True)
        assert new_flow.annotations["encryption"] is True
        assert "encryption" not in linear_flow.annotations
        assert insertion.added_operations == ()

    def test_description_recorded(self, linear_flow):
        new_flow, _ = wrap_graph(linear_flow, "resource_tier", "large", description="upgrade")
        assert "upgrade" in new_flow.applied_patterns
