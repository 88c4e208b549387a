"""Delta validation on flows whose parents already carry issues.

The warm benchmark flows validate clean, so carrying parent issues over
is only exercised here: flows with ``SCHEMA_MISMATCH``, ``ROUTER_ARITY``
and ``NON_LOAD_SINK`` warnings get single steps and chains of steps, and
at every step :func:`validate_delta` must return the same issues as the
:func:`validate_flow` oracle -- as sorted lists, so multiplicity counts
(a source with two mismatching outputs carries two equal issues).
"""

from __future__ import annotations

import random

import pytest

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.etl.validation import validate_delta, validate_flow
from repro.patterns.registry import default_palette

_ROWS = Schema.of(
    Field("id", DataType.INTEGER, nullable=False, key=True),
    Field("v", DataType.DECIMAL, nullable=True),
)
#: A transition schema the ``_ROWS`` producers cannot satisfy.
_WIDER = Schema.of(
    Field("id", DataType.INTEGER, nullable=False, key=True),
    Field("w", DataType.STRING, nullable=True),
)


def _sorted(issues):
    return sorted(
        issues, key=lambda i: (i.severity.value, i.code, i.op_id, i.message)
    )


def _step(parent_issues, child):
    """Delta-validate ``child`` against its parent's issues; check the oracle."""
    got = validate_delta(child, child.delta, parent_issues)
    assert _sorted(got) == _sorted(validate_flow(child))
    return got


def _op(kind, op_id, schema=_ROWS):
    return Operation(kind, op_id=op_id, output_schema=schema)


@pytest.fixture
def warned() -> ETLGraph:
    """A flow carrying every warning the tests rely on.

    ``route`` is a router with one output (``ROUTER_ARITY``) whose
    transition to ``mid`` requires a field it does not produce
    (``SCHEMA_MISMATCH``); ``fan`` sends two mismatching transitions (two
    equal ``SCHEMA_MISMATCH`` issues); ``tail`` is a derive operation
    without successors (``NON_LOAD_SINK``).
    """
    flow = ETLGraph("warned")
    for op in (
        _op(OperationKind.EXTRACT_TABLE, "src"),
        _op(OperationKind.ROUTER, "route"),
        _op(OperationKind.DERIVE, "mid"),
        _op(OperationKind.DERIVE, "fan"),
        _op(OperationKind.FILTER, "left"),
        _op(OperationKind.FILTER, "right"),
        _op(OperationKind.LOAD_TABLE, "load"),
        _op(OperationKind.DERIVE, "tail"),
    ):
        flow.add_operation(op)
    flow.add_edge("src", "route")
    flow.add_edge("route", "mid", schema=_WIDER)
    flow.add_edge("mid", "fan")
    flow.add_edge("fan", "left", schema=_WIDER)
    flow.add_edge("fan", "right", schema=_WIDER)
    flow.add_edge("left", "load")
    flow.add_edge("right", "load")
    flow.add_edge("mid", "tail")
    codes = [issue.code for issue in validate_flow(flow)]
    assert codes.count("SCHEMA_MISMATCH") == 3
    assert "ROUTER_ARITY" in codes and "NON_LOAD_SINK" in codes
    return flow


class TestSingleSteps:
    def test_degree_neutral_rewire_keeps_the_mismatch(self, warned):
        # Interposing an operation on route -> mid leaves route's degrees
        # alone: only its outgoing schemas are re-checked, and the new
        # transition carries the same mismatching schema.
        child = warned.copy()
        child.add_operation(_op(OperationKind.NOOP, "x"))
        child.remove_edge("route", "mid")
        child.add_edge("route", "x", schema=_WIDER)
        child.add_edge("x", "mid")
        issues = _step(validate_flow(warned), child)
        assert [i.op_id for i in issues if i.code == "SCHEMA_MISMATCH"].count("route") == 1

    def test_degree_neutral_rewire_clears_the_mismatch(self, warned):
        child = warned.copy()
        child.add_operation(_op(OperationKind.NOOP, "x"))
        child.remove_edge("route", "mid")
        child.add_edge("route", "x")
        child.add_edge("x", "mid")
        issues = _step(validate_flow(warned), child)
        assert not [i for i in issues if i.code == "SCHEMA_MISMATCH" and i.op_id == "route"]
        assert any(i.code == "ROUTER_ARITY" for i in issues)

    def test_rewire_at_a_source_with_two_mismatches(self, warned):
        # One of fan's two mismatching outputs is rerouted through a new
        # operation; the other stays.  Both equal issues must survive.
        child = warned.copy()
        child.add_operation(_op(OperationKind.NOOP, "y"))
        child.remove_edge("fan", "left")
        child.add_edge("fan", "y", schema=_WIDER)
        child.add_edge("y", "left")
        issues = _step(validate_flow(warned), child)
        assert [i.op_id for i in issues if i.code == "SCHEMA_MISMATCH"].count("fan") == 2

    def test_edge_schema_fix(self, warned):
        child = warned.copy()
        child.set_edge_schema("fan", "right", _ROWS)
        issues = _step(validate_flow(warned), child)
        assert [i.op_id for i in issues if i.code == "SCHEMA_MISMATCH"].count("fan") == 1

    def test_second_router_output_clears_the_arity_warning(self, warned):
        child = warned.copy()
        child.add_edge("route", "tail")
        issues = _step(validate_flow(warned), child)
        assert not any(i.code == "ROUTER_ARITY" for i in issues)

    def test_payload_change_turns_the_sink_into_a_load(self, warned):
        child = warned.copy()
        child.update_operation("tail", kind=OperationKind.LOAD_FILE)
        issues = _step(validate_flow(warned), child)
        assert not any(i.code == "NON_LOAD_SINK" for i in issues)

    def test_schema_change_of_a_source_operation(self, warned):
        child = warned.copy()
        child.update_operation("route", output_schema=_WIDER)
        issues = _step(validate_flow(warned), child)
        assert not [i for i in issues if i.code == "SCHEMA_MISMATCH" and i.op_id == "route"]

    def test_removing_the_warned_sink(self, warned):
        child = warned.copy()
        child.remove_operation("tail")
        issues = _step(validate_flow(warned), child)
        assert not any(i.code == "NON_LOAD_SINK" for i in issues)

    def test_removing_a_router_bridges_or_disconnects(self, warned):
        bridged = warned.copy()
        bridged.remove_operation("route")
        bridged.add_edge("src", "mid")
        _step(validate_flow(warned), bridged)
        cut = warned.copy()
        cut.remove_operation("route")
        issues = _step(validate_flow(warned), cut)
        assert any(i.code == "DISCONNECTED" for i in issues)

    def test_growing_a_single_operation_flow(self):
        # The lone operation becomes isolated without a degree change.
        flow = ETLGraph("one")
        flow.add_operation(_op(OperationKind.EXTRACT_TABLE, "a"))
        child = flow.copy()
        child.add_operation(_op(OperationKind.LOAD_TABLE, "b"))
        issues = _step(validate_flow(flow), child)
        assert {i.op_id for i in issues if i.code == "ISOLATED_OPERATION"} == {"a", "b"}

    def test_every_palette_pattern_at_every_point(self, warned):
        parent_issues = validate_flow(warned)
        checked = 0
        for pattern in default_palette():
            for point in pattern.find_application_points(warned):
                _step(parent_issues, pattern.apply(warned, point))
                checked += 1
        assert checked > 0


class TestChains:
    def test_pattern_chains(self, warned):
        palette = list(default_palette())
        base_issues = validate_flow(warned)
        checked = 0
        for first in palette:
            for point in first.find_application_points(warned)[:2]:
                mid = first.apply(warned, point)
                mid_issues = _step(base_issues, mid)
                for second in palette:
                    for second_point in second.find_application_points(mid)[:1]:
                        _step(mid_issues, second.apply(mid, second_point))
                        checked += 1
        assert checked > 20

    @pytest.mark.parametrize("seed", range(12))
    def test_random_edit_chains(self, warned, seed):
        """Random edits, each a fork of the last, validated along the chain."""
        rng = random.Random(seed)
        flow, issues = warned, validate_flow(warned)
        fresh = 0
        for _ in range(12):
            child = flow.copy()
            _random_edit(child, rng, fresh)
            fresh += 1
            issues = _step(issues, child)
            flow = child


def _random_edit(flow: ETLGraph, rng: random.Random, fresh: int) -> None:
    """One structural edit of ``flow``: interpose, rewire, re-type, cut or relink."""
    edges = flow.edges()
    ops = flow.operation_ids()
    action = rng.choice(["interpose", "schema", "retype", "remove_edge", "add_edge", "remove_op"])
    if action == "interpose" and edges:
        edge = rng.choice(edges)
        new_id = f"n{fresh}"
        flow.add_operation(_op(rng.choice([OperationKind.NOOP, OperationKind.ROUTER]), new_id))
        flow.remove_edge(edge.source, edge.target)
        flow.add_edge(edge.source, new_id, schema=rng.choice([edge.schema, _ROWS, _WIDER]))
        flow.add_edge(new_id, edge.target)
    elif action == "schema" and edges:
        edge = rng.choice(edges)
        flow.set_edge_schema(edge.source, edge.target, rng.choice([_ROWS, _WIDER]))
    elif action == "retype":
        op_id = rng.choice(ops)
        kind = rng.choice([OperationKind.DERIVE, OperationKind.ROUTER, OperationKind.LOAD_TABLE])
        flow.update_operation(op_id, kind=kind, output_schema=rng.choice([_ROWS, _WIDER]))
    elif action == "remove_edge" and edges:
        edge = rng.choice(edges)
        flow.remove_edge(edge.source, edge.target)
    elif action == "add_edge":
        source, target = rng.sample(ops, 2)
        if not flow.has_edge(source, target) and source not in flow.downstream_of(target):
            flow.add_edge(source, target, schema=rng.choice([_ROWS, _WIDER]))
    elif action == "remove_op" and len(ops) > 3:
        flow.remove_operation(rng.choice(ops))
    else:
        flow.set_annotation("touched", fresh)
