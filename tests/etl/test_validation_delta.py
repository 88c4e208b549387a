"""Tests of delta-based validation (:func:`validate_delta`).

The contract: for a flow derived from a validated parent by its recorded
delta, ``validate_delta(flow, delta, parent_issues)`` finds exactly the
same issue set as the ``validate_flow`` oracle -- while re-checking only
the delta neighbourhood.
"""

from __future__ import annotations

import pytest

from repro.etl.graph import ETLGraph, GraphDelta
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.etl.validation import Severity, validate_delta, validate_flow
from repro.patterns.registry import default_palette
from tests.conftest import set_config


def _issue_set(issues):
    return {str(issue) for issue in issues}


def assert_oracle_agreement(child, parent_issues):
    got = _issue_set(validate_delta(child, child.delta, parent_issues))
    want = _issue_set(validate_flow(child))
    assert got == want


@pytest.fixture
def schema() -> Schema:
    return Schema.of(
        Field("id", DataType.INTEGER, nullable=False, key=True),
        Field("v", DataType.DECIMAL, nullable=True),
    )


class TestValidateDelta:
    def test_empty_delta_carries_parent_issues(self, linear_flow):
        child = linear_flow.copy()
        parent_issues = validate_flow(linear_flow)
        assert validate_delta(child, child.delta, parent_issues) == parent_issues

    def test_annotation_only_delta_short_circuits(self, linear_flow):
        child = linear_flow.copy()
        child.set_annotation("encryption", True)
        parent_issues = validate_flow(linear_flow)
        assert validate_delta(child, child.delta, parent_issues) == parent_issues

    def test_detects_join_arity_error_in_neighbourhood(self, schema):
        flow = ETLGraph("j")
        flow.add_operation(Operation(OperationKind.EXTRACT_TABLE, op_id="a", output_schema=schema))
        flow.add_operation(Operation(OperationKind.EXTRACT_TABLE, op_id="b", output_schema=schema))
        flow.add_operation(Operation(OperationKind.JOIN, op_id="j", output_schema=schema))
        flow.add_operation(Operation(OperationKind.LOAD_TABLE, op_id="l", output_schema=schema))
        flow.add_edge("a", "j")
        flow.add_edge("b", "j")
        flow.add_edge("j", "l")
        parent_issues = validate_flow(flow)
        child = flow.copy()
        child.remove_edge("b", "j")
        child.remove_operation("b")
        issues = validate_delta(child, child.delta, parent_issues)
        assert any(i.code == "JOIN_ARITY" and i.severity is Severity.ERROR for i in issues)
        assert_oracle_agreement(child, parent_issues)

    def test_detects_disconnection(self, schema):
        flow = ETLGraph("d")
        flow.add_operation(Operation(OperationKind.EXTRACT_TABLE, op_id="a", output_schema=schema))
        flow.add_operation(Operation(OperationKind.DERIVE, op_id="m", output_schema=schema))
        flow.add_operation(Operation(OperationKind.LOAD_TABLE, op_id="l", output_schema=schema))
        flow.add_edge("a", "m")
        flow.add_edge("m", "l")
        parent_issues = validate_flow(flow)
        child = flow.copy()
        child.remove_edge("m", "l")
        issues = validate_delta(child, child.delta, parent_issues)
        assert any(i.code == "DISCONNECTED" for i in issues)
        assert_oracle_agreement(child, parent_issues)

    def test_parent_warnings_survive_outside_neighbourhood(self, schema):
        # a NON_LOAD_SINK warning on an untouched exit must carry over
        flow = ETLGraph("w")
        flow.add_operation(Operation(OperationKind.EXTRACT_TABLE, op_id="a", output_schema=schema))
        flow.add_operation(Operation(OperationKind.DERIVE, op_id="m", output_schema=schema))
        flow.add_operation(Operation(OperationKind.DERIVE, op_id="end", output_schema=schema))
        flow.add_edge("a", "m")
        flow.add_edge("m", "end")
        parent_issues = validate_flow(flow)
        assert any(i.code == "NON_LOAD_SINK" for i in parent_issues)
        child = flow.copy()
        set_config(child, "a", rows=10)  # touches only "a"
        issues = validate_delta(child, child.delta, parent_issues)
        assert any(i.code == "NON_LOAD_SINK" and i.op_id == "end" for i in issues)
        assert_oracle_agreement(child, parent_issues)

    def test_issues_of_removed_operations_are_dropped(self, schema):
        flow = ETLGraph("r")
        flow.add_operation(Operation(OperationKind.EXTRACT_TABLE, op_id="a", output_schema=schema))
        flow.add_operation(Operation(OperationKind.DERIVE, op_id="bad_end", output_schema=schema))
        flow.add_edge("a", "bad_end")
        parent_issues = validate_flow(flow)
        assert any(i.op_id == "bad_end" for i in parent_issues)
        child = flow.copy()
        child.remove_operation("bad_end")
        issues = validate_delta(child, child.delta, parent_issues)
        assert not any(i.op_id == "bad_end" for i in issues)
        assert_oracle_agreement(child, parent_issues)


class TestOracleAgreementOnPatterns:
    """Every palette pattern applied everywhere agrees with the oracle."""

    @pytest.mark.parametrize("flow_fixture", ["linear_flow", "branching_flow"])
    def test_single_applications(self, flow_fixture, request):
        flow = request.getfixturevalue(flow_fixture)
        parent_issues = validate_flow(flow)
        checked = 0
        for pattern in default_palette():
            for point in pattern.find_application_points(flow):
                base = flow.copy()
                child = pattern.apply(base, point)
                assert child.delta is not None and child.derived_from(base)
                got = _issue_set(validate_delta(child, child.delta, parent_issues))
                want = _issue_set(validate_flow(child))
                assert got == want, pattern.name
                checked += 1
        assert checked > 0

    def test_chained_applications_with_composed_delta(self, branching_flow):
        parent_issues = validate_flow(branching_flow)
        base = branching_flow.copy()
        checked = 0
        for first in default_palette():
            points = first.find_application_points(base)
            if not points:
                continue
            mid = first.apply(base, points[0])
            for second in default_palette():
                second_points = second.find_application_points(mid)
                if not second_points:
                    continue
                final = second.apply(mid, second_points[0])
                composed = mid.delta.compose(final.delta)
                got = _issue_set(validate_delta(final, composed, parent_issues))
                want = _issue_set(validate_flow(final))
                assert got == want, (first.name, second.name)
                checked += 1
        assert checked > 0
