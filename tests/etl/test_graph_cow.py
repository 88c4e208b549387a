"""Tests of the copy discipline of :class:`ETLGraph`.

Covers payload sharing and update isolation (both directions), adjacency
copy-on-write, delta recording and composition, incremental +
annotation-aware signatures, the relabel/shared-state interaction, and
pickling of graphs that share payloads and adjacency with their copies.
"""

from __future__ import annotations

import pickle

import pytest

from repro.etl.graph import ETLGraph, GraphDelta
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema.of(
        Field("id", DataType.INTEGER, nullable=False, key=True),
        Field("v", DataType.DECIMAL, nullable=True),
    )


@pytest.fixture
def chain(schema: Schema) -> ETLGraph:
    """extract -> derive -> load."""
    flow = ETLGraph("chain")
    flow.add_operation(Operation(OperationKind.EXTRACT_TABLE, op_id="src", output_schema=schema))
    flow.add_operation(Operation(OperationKind.DERIVE, op_id="mid", output_schema=schema))
    flow.add_operation(Operation(OperationKind.LOAD_TABLE, op_id="dst", output_schema=schema))
    flow.add_edge("src", "mid")
    flow.add_edge("mid", "dst")
    return flow


class TestCowSharing:
    def test_cow_copy_equals_parent(self, chain):
        child = chain.copy()
        assert child.signature() == chain.signature()
        assert child.structurally_equal(chain)
        assert child.operation("mid") is chain.operation("mid")  # payload shared

    def test_update_operation_is_isolated(self, chain):
        child = chain.copy()
        op = child.update_operation("mid", config={"parallelism": 8})
        assert op is not chain.operation("mid")
        assert chain.operation("mid").parallelism == 1
        assert child.operation("mid").parallelism == 8

    def test_parent_write_does_not_leak_into_child(self, chain):
        child = chain.copy()
        chain.update_operation("mid", config={"parallelism": 4})
        assert child.operation("mid").parallelism == 1

    def test_child_structural_mutation_is_isolated(self, chain):
        child = chain.copy()
        child.remove_edge("mid", "dst")
        child.remove_operation("dst")
        assert chain.has_edge("mid", "dst")
        assert "dst" in chain
        assert "dst" not in child

    def test_parent_structural_mutation_is_isolated(self, chain, schema):
        child = chain.copy()
        chain.add_operation(Operation(OperationKind.NOOP, op_id="extra", output_schema=schema))
        chain.add_edge("mid", "extra")
        assert "extra" not in child
        assert not child.has_edge("mid", "extra")

    def test_set_edge_schema_is_isolated(self, chain, schema):
        child = chain.copy()
        child.set_edge_schema("src", "mid", Schema())
        assert len(chain.edge("src", "mid").schema) == len(schema)
        assert len(child.edge("src", "mid").schema) == 0

    def test_chained_cow_copies(self, chain):
        child = chain.copy()
        child.update_operation("mid", config={"parallelism": 2})
        grandchild = child.copy()
        grandchild.update_operation("mid", config={"parallelism": 3})
        assert chain.operation("mid").parallelism == 1
        assert child.operation("mid").parallelism == 2
        assert grandchild.operation("mid").parallelism == 3

    def test_every_copy_records_a_delta(self, chain):
        child = chain.copy()
        grandchild = child.copy()
        assert grandchild.delta is not None
        assert grandchild.derived_from(child)
        assert not grandchild.derived_from(chain)

    def test_fresh_flow_has_no_delta(self, chain):
        assert chain.delta is None
        assert ETLGraph.from_dict(chain.to_dict()).delta is None


class TestDeltaRecording:
    def test_empty_delta_after_fork(self, chain):
        child = chain.copy()
        assert child.delta is not None and child.delta.is_empty()
        assert child.derived_from(chain)

    def test_structural_delta(self, chain, schema):
        child = chain.copy()
        child.remove_edge("mid", "dst")
        child.add_operation(Operation(OperationKind.CHECKPOINT, op_id="cp", output_schema=schema))
        child.add_edge("mid", "cp")
        child.add_edge("cp", "dst")
        delta = child.delta
        assert delta.ops_added == {"cp"}
        assert delta.edges_removed == {("mid", "dst")}
        assert delta.edges_added == {("mid", "cp"), ("cp", "dst")}

    def test_net_effect_cancellation(self, chain, schema):
        child = chain.copy()
        child.add_operation(Operation(OperationKind.NOOP, op_id="tmp", output_schema=schema))
        child.add_edge("mid", "tmp")
        child.remove_operation("tmp")
        assert child.delta.is_empty()
        assert child.signature() == chain.signature()

    def test_annotation_delta_and_signature(self, chain):
        child = chain.copy()
        child.set_annotation("encryption", True)
        assert child.delta.annotations_set == {"encryption": True}
        assert not child.delta.is_structural()
        assert child.signature() != chain.signature()
        assert child.signature()[:2] == chain.signature()[:2]  # structure unchanged

    def test_direct_annotation_assignment_still_in_signature(self, chain):
        # Legacy code assigns into the dict; the signature reads it live.
        child = chain.copy()
        child.annotations["resource_tier"] = "large"
        assert child.signature() != chain.signature()

    def test_compose(self):
        first = GraphDelta(ops_added={"a"}, edges_added={("x", "a")})
        second = GraphDelta(ops_removed={"a"}, edges_removed={("x", "a")}, ops_modified={"x"})
        merged = first.compose(second)
        assert merged.ops_added == set()
        assert merged.ops_removed == set()
        assert merged.edges_added == set()
        assert merged.edges_removed == set()
        assert merged.ops_modified == {"x"}

    def test_modify_then_remove_nets_to_removed(self):
        first = GraphDelta(ops_modified={"x"})
        second = GraphDelta(ops_removed={"x"})
        merged = first.compose(second)
        assert merged.ops_removed == {"x"}
        assert merged.ops_modified == set()


class TestIncrementalSignature:
    def test_signature_matches_full_recompute(self, chain, schema):
        child = chain.copy()
        child.remove_edge("mid", "dst")
        child.add_operation(Operation(OperationKind.CHECKPOINT, op_id="cp", output_schema=schema))
        child.add_edge("mid", "cp")
        child.add_edge("cp", "dst")
        child.update_operation("mid", config={"parallelism": 4})
        fresh = ETLGraph.from_dict(child.to_dict())
        assert child.signature() == fresh.signature()

    def test_signature_cache_invalidated_on_mutation(self, chain):
        child = chain.copy()
        before = child.signature()
        child.update_operation("mid", config={"parallelism": 4})
        assert child.signature() != before

    def test_signature_includes_parallelism_via_merge(self, chain):
        child = chain.copy()
        child.update_operation("mid", config={"parallelism": 4})
        nodes, _, _ = child.signature()
        assert ("mid", "derive", 4) in nodes

    def test_annotations_fold_into_signature(self, chain):
        a = chain.copy()
        b = chain.copy()
        a.set_annotation("encryption", True)
        b.set_annotation("encryption", True)
        assert a.signature() == b.signature()
        b.set_annotation("access_control", "role_based")
        assert a.signature() != b.signature()


class TestParentTupleReuse:
    """A signature part the delta does not touch is the parent's tuple itself."""

    @staticmethod
    def _assert_matches_a_fresh_build(flow):
        fresh = ETLGraph.from_dict(flow.to_dict())
        assert flow.signature() == fresh.signature()
        assert flow.fingerprint() == fresh.fingerprint()

    def test_annotation_only_delta_reuses_both_parts(self, chain):
        parent_nodes, parent_edges, _ = chain.signature()
        child = chain.copy()
        child.set_annotation("encryption", True)
        nodes, edges, annotations = child.signature()
        assert nodes is parent_nodes and edges is parent_edges
        assert annotations == (("encryption", "True"),)
        assert child.fingerprint() != chain.fingerprint()
        self._assert_matches_a_fresh_build(child)

    def test_operation_only_delta_reuses_the_edges(self, chain, schema):
        parent_nodes, parent_edges, _ = chain.signature()
        child = chain.copy()
        child.update_operation("mid", config={"parallelism": 4})
        child.update_operation(
            "dst", output_schema=Schema.of(Field("w", DataType.STRING))
        )
        nodes, edges, _ = child.signature()
        assert edges is parent_edges
        assert nodes is not parent_nodes and ("mid", "derive", 4) in nodes
        self._assert_matches_a_fresh_build(child)

    def test_edge_schema_change_reuses_both_parts(self, chain):
        parent_nodes, parent_edges, _ = chain.signature()
        child = chain.copy()
        child.set_edge_schema("mid", "dst", Schema.of(Field("w", DataType.STRING)))
        nodes, edges, _ = child.signature()
        assert nodes is parent_nodes and edges is parent_edges
        self._assert_matches_a_fresh_build(child)

    def test_parent_mutated_after_the_fork_falls_back_to_scratch(self, chain, schema):
        child = chain.copy()
        chain.remove_edge("mid", "dst")
        chain.add_operation(Operation(OperationKind.NOOP, op_id="late", output_schema=schema))
        chain.update_operation("mid", config={"parallelism": 3})
        chain.signature(), chain.fingerprint()
        child.set_annotation("encryption", True)
        nodes, edges, _ = child.signature()
        assert ("mid", "dst") in edges and ("mid", "derive", 1) in nodes
        assert "late" not in {entry[0] for entry in nodes}
        self._assert_matches_a_fresh_build(child)
        self._assert_matches_a_fresh_build(chain)


class TestRelabelIsolation:
    def test_relabel_on_child_does_not_leak_into_parent(self, chain):
        child = chain.copy()
        child.relabel_operation("mid", "renamed")
        assert "mid" in chain and "renamed" not in chain
        assert chain.operation("mid").op_id == "mid"
        assert child.operation("renamed").op_id == "renamed"
        assert chain.has_edge("src", "mid") and chain.has_edge("mid", "dst")
        assert child.has_edge("src", "renamed") and child.has_edge("renamed", "dst")

    def test_relabel_on_parent_does_not_leak_into_child(self, chain):
        child = chain.copy()
        chain.relabel_operation("mid", "renamed")
        assert "mid" in child and "renamed" not in child
        assert child.operation("mid").op_id == "mid"

    def test_relabel_delta_and_signature(self, chain):
        child = chain.copy()
        child.relabel_operation("mid", "renamed")
        delta = child.delta
        assert "mid" in delta.ops_removed
        assert "renamed" in delta.ops_added
        fresh = ETLGraph.from_dict(child.to_dict())
        assert child.signature() == fresh.signature()


class TestPickling:
    def test_cow_child_pickles_self_contained(self, chain):
        child = chain.copy()
        restored = pickle.loads(pickle.dumps(child))
        assert restored.signature() == child.signature()
        restored.update_operation("mid", config={"parallelism": 6})
        restored.remove_edge("mid", "dst")
        assert chain.operation("mid").parallelism == 1
        assert chain.has_edge("mid", "dst")

    def test_parent_and_child_pickled_together_stay_isolated(self, chain):
        child = chain.copy()
        parent2, child2 = pickle.loads(pickle.dumps((chain, child)))
        # operations are values, so the round trip may keep them shared ...
        assert child2.operation("mid") is parent2.operation("mid")
        # ... but adjacency comes back private on each side
        child2.update_operation("mid", config={"parallelism": 9})
        child2.remove_edge("mid", "dst")
        assert parent2.operation("mid").parallelism == 1
        assert parent2.has_edge("mid", "dst")

    def test_shared_payloads_survive_a_round_trip(self, chain, schema):
        # The flow a process-pool worker receives: its payloads are shared
        # with forks that changed other operations.
        sibling = chain.copy()
        sibling.update_operation("mid", config={"parallelism": 3})
        sibling.add_operation(Operation(OperationKind.NOOP, op_id="extra", output_schema=schema))
        sibling.add_edge("mid", "extra")
        child = chain.copy()
        child.set_annotation("encryption", True)
        for flow in (chain, child, sibling):
            restored = pickle.loads(pickle.dumps(flow))
            assert restored.fingerprint() == flow.fingerprint()
            assert restored.signature() == flow.signature()
            assert restored.to_dict() == flow.to_dict()

    def test_fresh_graph_pickle_unchanged(self, chain):
        restored = pickle.loads(pickle.dumps(chain))
        assert restored.signature() == chain.signature()
        assert restored.structurally_equal(chain)
