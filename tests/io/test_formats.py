"""Tests for the xLM / PDI / JSON / DOT import-export paths."""

import pytest

from repro.io.dot import flow_to_dot, save_flow_dot
from repro.io.jsonflow import flow_from_json, flow_to_json, load_flow_json, save_flow_json
from repro.io.pdi import flow_from_pdi, flow_to_pdi, load_flow_pdi, save_flow_pdi
from repro.io.xlm import flow_from_xlm, flow_to_xlm, load_flow_xlm, save_flow_xlm
from repro.etl.operations import OperationKind


def _assert_same_flow(a, b):
    assert b.name == a.name
    assert b.structurally_equal(a)
    for op_id in a.operation_ids():
        original = a.operation(op_id)
        restored = b.operation(op_id)
        assert restored.kind is original.kind
        assert restored.output_schema == original.output_schema
        assert restored.config == original.config
        assert restored.properties.cost_per_tuple == pytest.approx(
            original.properties.cost_per_tuple
        )
        assert restored.properties.selectivity == pytest.approx(original.properties.selectivity)
    assert b.annotations == a.annotations


class TestJsonFormat:
    def test_round_trip(self, branching_flow):
        branching_flow.annotations["encryption"] = True
        restored = flow_from_json(flow_to_json(branching_flow))
        _assert_same_flow(branching_flow, restored)

    def test_file_round_trip(self, linear_flow, tmp_path):
        path = save_flow_json(linear_flow, tmp_path / "flow.json")
        assert path.exists()
        _assert_same_flow(linear_flow, load_flow_json(path))

    def test_invalid_document_rejected(self):
        with pytest.raises(ValueError):
            flow_from_json("[1, 2, 3]")


class TestXlmFormat:
    def test_round_trip(self, branching_flow):
        branching_flow.annotations["resource_tier"] = "large"
        restored = flow_from_xlm(flow_to_xlm(branching_flow))
        _assert_same_flow(branching_flow, restored)

    def test_round_trip_preserves_edge_schemas(self, linear_flow):
        restored = flow_from_xlm(flow_to_xlm(linear_flow))
        for edge in linear_flow.edges():
            assert restored.edge(edge.source, edge.target).schema == edge.schema

    def test_file_round_trip(self, small_purchases, tmp_path):
        path = save_flow_xlm(small_purchases, tmp_path / "purchases.xlm")
        restored = load_flow_xlm(path)
        _assert_same_flow(small_purchases, restored)

    def test_document_structure(self, linear_flow):
        text = flow_to_xlm(linear_flow)
        assert text.startswith("<?xml")
        assert "<design" in text
        assert "<node" in text
        assert "<edge" in text

    def test_non_xlm_document_rejected(self):
        with pytest.raises(ValueError, match="not an xLM document"):
            flow_from_xlm("<transformation></transformation>")

    def test_missing_nodes_rejected(self):
        with pytest.raises(ValueError, match="no <nodes>"):
            flow_from_xlm('<design name="x"></design>')


class TestPdiFormat:
    def test_round_trip_with_extension(self, branching_flow):
        branching_flow.annotations["schedule_frequency_per_day"] = 48.0
        restored = flow_from_pdi(flow_to_pdi(branching_flow))
        _assert_same_flow(branching_flow, restored)

    def test_file_round_trip(self, linear_flow, tmp_path):
        path = save_flow_pdi(linear_flow, tmp_path / "flow.ktr")
        _assert_same_flow(linear_flow, load_flow_pdi(path))

    def test_step_types_mapped(self, linear_flow):
        text = flow_to_pdi(linear_flow)
        assert "<transformation>" in text
        assert "TableInput" in text
        assert "TableOutput" in text
        assert "FilterRows" in text

    def test_plain_pdi_without_extension(self):
        text = """<?xml version="1.0"?>
        <transformation>
          <info><name>spoon_flow</name></info>
          <order>
            <hop><from>read_orders</from><to>filter_orders</to><enabled>Y</enabled></hop>
            <hop><from>filter_orders</from><to>write_orders</to><enabled>Y</enabled></hop>
            <hop><from>filter_orders</from><to>disabled_target</to><enabled>N</enabled></hop>
          </order>
          <step><name>read_orders</name><type>TableInput</type></step>
          <step><name>filter_orders</name><type>FilterRows</type></step>
          <step><name>write_orders</name><type>TableOutput</type></step>
          <step><name>disabled_target</name><type>Dummy</type></step>
        </transformation>
        """
        flow = flow_from_pdi(text)
        assert flow.name == "spoon_flow"
        assert flow.node_count == 4
        assert flow.edge_count == 2  # the disabled hop is skipped
        assert flow.operation("read_orders").kind is OperationKind.EXTRACT_TABLE
        assert flow.operation("filter_orders").kind is OperationKind.FILTER
        assert flow.operation("write_orders").kind is OperationKind.LOAD_TABLE

    def test_unknown_step_type_becomes_noop(self):
        text = """<transformation>
          <info><name>f</name></info>
          <step><name>mystery</name><type>SomeExoticStep</type></step>
        </transformation>"""
        flow = flow_from_pdi(text)
        assert flow.operation("mystery").kind is OperationKind.NOOP

    def test_non_pdi_document_rejected(self):
        with pytest.raises(ValueError, match="not a PDI"):
            flow_from_pdi("<design></design>")


class TestDotExport:
    def test_contains_every_node_and_edge(self, branching_flow):
        dot = flow_to_dot(branching_flow)
        assert dot.startswith("digraph")
        for op in branching_flow.operations():
            assert f'"{op.op_id}"' in dot
        for edge in branching_flow.edges():
            assert f'"{edge.source}" -> "{edge.target}"' in dot

    def test_save(self, linear_flow, tmp_path):
        path = save_flow_dot(linear_flow, tmp_path / "flow.dot")
        assert path.read_text().startswith("digraph")

    def test_escaping_of_quotes(self, linear_flow):
        op = linear_flow.operations()[0]
        linear_flow.update_operation(op.op_id, name='quoted "name"')
        dot = flow_to_dot(linear_flow)
        assert '\\"name\\"' in dot


class TestCrossFormatConsistency:
    def test_xlm_and_pdi_and_json_agree(self, small_purchases):
        via_json = flow_from_json(flow_to_json(small_purchases))
        via_xlm = flow_from_xlm(flow_to_xlm(small_purchases))
        via_pdi = flow_from_pdi(flow_to_pdi(small_purchases))
        assert via_json.structurally_equal(via_xlm)
        assert via_xlm.structurally_equal(via_pdi)

    def test_imported_flow_is_plannable(self, small_purchases):
        from repro.core import Planner, ProcessingConfiguration

        restored = flow_from_xlm(flow_to_xlm(small_purchases))
        planner = Planner(
            configuration=ProcessingConfiguration(
                pattern_budget=1, max_points_per_pattern=1, simulation_runs=1
            )
        )
        result = planner.plan(restored)
        assert result.alternatives
