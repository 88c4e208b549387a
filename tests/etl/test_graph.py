"""Unit tests for the ETL flow graph."""

import pytest

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema


def _op(kind: OperationKind, op_id: str, schema: Schema | None = None) -> Operation:
    return Operation(kind, op_id=op_id, output_schema=schema or Schema())


@pytest.fixture
def diamond() -> ETLGraph:
    """extract -> split -> (a, b) -> merge -> load"""
    schema = Schema.of(Field("id", DataType.INTEGER, nullable=False, key=True))
    flow = ETLGraph("diamond")
    flow.add_operation(_op(OperationKind.EXTRACT_TABLE, "src", schema))
    flow.add_operation(_op(OperationKind.SPLIT, "split", schema))
    flow.add_operation(_op(OperationKind.DERIVE, "branch_a", schema))
    flow.add_operation(_op(OperationKind.DERIVE, "branch_b", schema))
    flow.add_operation(_op(OperationKind.MERGE, "merge", schema))
    flow.add_operation(_op(OperationKind.LOAD_TABLE, "load", schema))
    flow.add_edge("src", "split")
    flow.add_edge("split", "branch_a")
    flow.add_edge("split", "branch_b")
    flow.add_edge("branch_a", "merge")
    flow.add_edge("branch_b", "merge")
    flow.add_edge("merge", "load")
    return flow


class TestConstruction:
    def test_add_duplicate_operation_rejected(self, diamond):
        with pytest.raises(ValueError, match="duplicate"):
            diamond.add_operation(_op(OperationKind.FILTER, "src"))

    def test_add_edge_unknown_nodes_rejected(self, diamond):
        with pytest.raises(KeyError):
            diamond.add_edge("src", "ghost")
        with pytest.raises(KeyError):
            diamond.add_edge("ghost", "load")

    def test_self_loop_rejected(self, diamond):
        with pytest.raises(ValueError, match="self-loop"):
            diamond.add_edge("src", "src")

    def test_cycle_rejected_and_rolled_back(self, diamond):
        with pytest.raises(ValueError, match="cycle"):
            diamond.add_edge("load", "src")
        assert not diamond.has_edge("load", "src")

    def test_default_edge_schema_is_source_output(self, diamond):
        edge = diamond.edge("src", "split")
        assert edge.schema == diamond.operation("src").output_schema

    def test_remove_edge_and_operation(self, diamond):
        diamond.remove_edge("merge", "load")
        assert not diamond.has_edge("merge", "load")
        diamond.remove_operation("load")
        assert "load" not in diamond

    def test_remove_missing_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.remove_edge("src", "load")
        with pytest.raises(KeyError):
            diamond.remove_operation("ghost")

    def test_relabel_operation(self, diamond):
        diamond.relabel_operation("branch_a", "branch_alpha")
        assert "branch_alpha" in diamond
        assert "branch_a" not in diamond
        assert diamond.has_edge("split", "branch_alpha")
        assert diamond.has_edge("branch_alpha", "merge")
        assert diamond.edge("split", "branch_alpha").target == "branch_alpha"

    def test_relabel_collision_rejected(self, diamond):
        with pytest.raises(ValueError):
            diamond.relabel_operation("branch_a", "branch_b")

    def test_set_edge_schema(self, diamond):
        new_schema = Schema.of(Field("x", DataType.STRING))
        diamond.set_edge_schema("src", "split", new_schema)
        assert diamond.edge("src", "split").schema == new_schema


class TestAccess:
    def test_len_and_counts(self, diamond):
        assert len(diamond) == 6
        assert diamond.node_count == 6
        assert diamond.edge_count == 6

    def test_unknown_operation_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.operation("ghost")
        with pytest.raises(KeyError):
            diamond.edge("src", "merge")

    @pytest.mark.parametrize(
        "query",
        [
            "operation",
            "update_operation",
            "predecessors",
            "successors",
            "predecessor_ids",
            "successor_ids",
            "in_degree",
            "out_degree",
            "upstream_of",
            "downstream_of",
            "distance_from_sources",
            "distance_to_sinks",
            "remove_operation",
        ],
    )
    def test_unknown_id_raises_key_error(self, diamond, query):
        with pytest.raises(KeyError, match="unknown operation: 'ghost'"):
            getattr(diamond, query)("ghost")

    def test_sources_and_sinks(self, diamond):
        assert [op.op_id for op in diamond.sources()] == ["src"]
        assert [op.op_id for op in diamond.sinks()] == ["load"]

    def test_neighbours(self, diamond):
        assert {op.op_id for op in diamond.successors("split")} == {"branch_a", "branch_b"}
        assert {op.op_id for op in diamond.predecessors("merge")} == {"branch_a", "branch_b"}
        assert diamond.in_degree("merge") == 2
        assert diamond.out_degree("split") == 2

    def test_topological_order_respects_edges(self, diamond):
        order = [op.op_id for op in diamond.topological_order()]
        assert order.index("src") < order.index("split")
        assert order.index("split") < order.index("branch_a")
        assert order.index("merge") < order.index("load")

    def test_operations_of_kind(self, diamond):
        derives = diamond.operations_of_kind(OperationKind.DERIVE)
        assert {op.op_id for op in derives} == {"branch_a", "branch_b"}


class TestStructureMetrics:
    def test_longest_path(self, diamond):
        assert diamond.longest_path_length() == 4
        path_ids = [op.op_id for op in diamond.longest_path()]
        assert path_ids[0] == "src"
        assert path_ids[-1] == "load"

    def test_empty_flow_metrics(self):
        empty = ETLGraph("empty")
        assert empty.longest_path_length() == 0
        assert empty.longest_path() == []
        assert empty.coupling() == 0.0
        assert empty.is_connected()

    def test_upstream_downstream(self, diamond):
        assert diamond.upstream_of("merge") == {"src", "split", "branch_a", "branch_b"}
        assert diamond.downstream_of("split") == {"branch_a", "branch_b", "merge", "load"}

    def test_distances(self, diamond):
        assert diamond.distance_from_sources("src") == 0
        assert diamond.distance_from_sources("merge") == 3
        assert diamond.distance_to_sinks("merge") == 1
        assert diamond.distance_to_sinks("load") == 0

    def test_distance_unknown_op_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.distance_from_sources("ghost")

    def test_coupling(self, diamond):
        assert diamond.coupling() == pytest.approx(1.0)

    def test_merge_element_count(self, diamond):
        # Only the merge node has in-degree > 1 / merger kind.
        assert diamond.merge_element_count() == 1

    def test_connectivity(self, diamond):
        assert diamond.is_connected()
        diamond.add_operation(_op(OperationKind.EXTRACT_TABLE, "orphan"))
        assert not diamond.is_connected()


class TestCopyAndSignature:
    def test_copy_shares_operations_and_isolates_updates(self, diamond):
        clone = diamond.copy()
        assert clone.operation("branch_a") is diamond.operation("branch_a")
        clone.update_operation("branch_a", config={"marker": True})
        assert clone.operation("branch_a").config == {"marker": True}
        assert "marker" not in diamond.operation("branch_a").config

    def test_copy_preserves_structure(self, diamond):
        clone = diamond.copy()
        assert clone.structurally_equal(diamond)
        assert clone.signature() == diamond.signature()

    def test_structural_inequality_after_change(self, diamond):
        clone = diamond.copy()
        clone.remove_edge("merge", "load")
        assert not clone.structurally_equal(diamond)
        assert clone.signature() != diamond.signature()

    def test_signature_sensitive_to_parallelism(self, diamond):
        clone = diamond.copy()
        clone.update_operation("branch_a", config={"parallelism": 4})
        assert clone.signature() != diamond.signature()

    def test_update_operation_keeps_position_and_transitions(self, diamond):
        order = diamond.operation_ids()
        edges = [edge.key() for edge in diamond.edges()]
        updated = diamond.update_operation("branch_a", name="renamed")
        assert diamond.operation("branch_a") is updated
        assert updated.name == "renamed"
        assert diamond.operation_ids() == order
        assert [edge.key() for edge in diamond.edges()] == edges

    def test_update_operation_cannot_change_the_identifier(self, diamond):
        with pytest.raises(TypeError):
            diamond.update_operation("branch_a", op_id="other")
        assert "branch_a" in diamond and "other" not in diamond

    def test_copy_takes_only_a_name(self, diamond):
        with pytest.raises(TypeError):
            diamond.copy(mode="deep")

    def test_lineage_recording(self, diamond):
        diamond.record_pattern("AddCheckpoint @ edge merge->load")
        clone = diamond.copy()
        assert clone.applied_patterns == ["AddCheckpoint @ edge merge->load"]


class TestSerialisation:
    def test_round_trip(self, diamond):
        diamond.annotations["encryption"] = True
        diamond.record_pattern("something")
        restored = ETLGraph.from_dict(diamond.to_dict())
        assert restored.structurally_equal(diamond)
        assert restored.annotations == {"encryption": True}
        assert restored.applied_patterns == ["something"]
        assert restored.name == diamond.name
