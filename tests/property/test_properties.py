"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pareto import pareto_front
from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.properties import OperationProperties
from repro.etl.schema import DataType, Field, Schema
from repro.quality.framework import MeasureValue, QualityCharacteristic
from repro.quality.manageability import Coupling, LongestPathLength, MergeElementCount
from repro.simulator.engine import ETLSimulator, SimulationConfig
from repro.workloads import RandomFlowConfig, random_flow
from tests.conftest import set_config

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

_names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12)


@st.composite
def schemas(draw) -> Schema:
    count = draw(st.integers(min_value=1, max_value=8))
    names = draw(
        st.lists(_names, min_size=count, max_size=count, unique=True)
    )
    fields = []
    for name in names:
        fields.append(
            Field(
                name,
                draw(st.sampled_from(list(DataType))),
                nullable=draw(st.booleans()),
                key=draw(st.booleans()),
            )
        )
    return Schema(tuple(fields))


@st.composite
def linear_flows(draw) -> ETLGraph:
    """Random linear flows: extract -> N transformations -> load."""
    schema = draw(schemas())
    length = draw(st.integers(min_value=0, max_value=6))
    flow = ETLGraph("prop_flow")
    source = Operation(
        OperationKind.EXTRACT_TABLE,
        op_id="src",
        output_schema=schema,
        config={"rows": draw(st.integers(min_value=1, max_value=5_000))},
        properties=OperationProperties(
            null_rate=draw(st.floats(min_value=0.0, max_value=0.5)),
            duplicate_rate=draw(st.floats(min_value=0.0, max_value=0.5)),
            error_rate=draw(st.floats(min_value=0.0, max_value=0.5)),
        ),
    )
    flow.add_operation(source)
    previous = source
    kinds = [
        OperationKind.FILTER,
        OperationKind.DERIVE,
        OperationKind.LOOKUP,
        OperationKind.SORT,
        OperationKind.AGGREGATE,
        OperationKind.FILTER_NULLS,
        OperationKind.DEDUPLICATE,
    ]
    for index in range(length):
        op = Operation(
            draw(st.sampled_from(kinds)),
            op_id=f"op_{index}",
            output_schema=schema,
            properties=OperationProperties(
                cost_per_tuple=draw(st.floats(min_value=0.0, max_value=0.2)),
                selectivity=draw(st.floats(min_value=0.1, max_value=1.5)),
                failure_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
            ),
        )
        flow.add_operation(op)
        flow.add_edge(previous, op)
        previous = op
    sink = Operation(OperationKind.LOAD_TABLE, op_id="sink", output_schema=schema)
    flow.add_operation(sink)
    flow.add_edge(previous, sink)
    return flow


# --------------------------------------------------------------------------
# Schema invariants
# --------------------------------------------------------------------------


class TestSchemaProperties:
    @given(schema=schemas())
    def test_serialisation_round_trip(self, schema):
        assert Schema.from_dict(schema.to_dict()) == schema

    @given(schema=schemas())
    def test_projection_preserves_order_and_subset(self, schema):
        keep = list(schema.names[::2])
        projected = schema.project(keep)
        assert list(projected.names) == keep
        for field in projected:
            assert schema.field(field.name) == field

    @given(schema=schemas())
    def test_merge_keeps_all_fields(self, schema):
        merged = schema.merge(schema)
        assert len(merged) == 2 * len(schema)
        # names remain unique (the invariant enforced by Schema itself)
        assert len(set(merged.names)) == len(merged)

    @given(schema=schemas())
    def test_without_nulls_is_idempotent(self, schema):
        stripped = schema.without_nulls()
        assert stripped.without_nulls() == stripped
        assert stripped.nullable_fields == ()

    @given(schema=schemas())
    def test_compatibility_is_reflexive(self, schema):
        assert schema.is_compatible_with(schema)


# --------------------------------------------------------------------------
# Graph / flow invariants
# --------------------------------------------------------------------------


class TestFlowProperties:
    @settings(max_examples=30, deadline=None)
    @given(flow=linear_flows())
    def test_serialisation_round_trip(self, flow):
        restored = ETLGraph.from_dict(flow.to_dict())
        assert restored.structurally_equal(flow)
        assert restored.signature() == flow.signature()

    @settings(max_examples=30, deadline=None)
    @given(flow=linear_flows())
    def test_copy_equivalence_and_independence(self, flow):
        clone = flow.copy()
        assert clone.signature() == flow.signature()
        assert clone.fingerprint() == flow.fingerprint()
        set_config(clone, "src", rows=-1)
        assert flow.operation("src").config["rows"] != -1
        assert clone.fingerprint() != flow.fingerprint()

    @settings(max_examples=30, deadline=None)
    @given(flow=linear_flows())
    def test_linear_flow_metrics(self, flow):
        # a linear pipeline has longest path = nodes - 1 and coupling < 1
        assert flow.longest_path_length() == flow.node_count - 1
        assert LongestPathLength().compute(flow) == flow.node_count - 1
        assert Coupling().compute(flow) == pytest.approx(
            (flow.node_count - 1) / flow.node_count
        )
        assert MergeElementCount().compute(flow) >= 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           operations=st.integers(min_value=8, max_value=30))
    def test_random_flows_always_valid(self, seed, operations):
        from repro.etl.validation import is_valid

        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        assert is_valid(flow)
        assert flow.sources() and flow.sinks()


# --------------------------------------------------------------------------
# Simulator invariants
# --------------------------------------------------------------------------


class TestSimulatorProperties:
    @settings(max_examples=20, deadline=None)
    @given(flow=linear_flows(), seed=st.integers(min_value=0, max_value=1_000))
    def test_trace_invariants(self, flow, seed):
        trace = ETLSimulator(flow, SimulationConfig(runs=1, seed=seed)).run_once()
        assert trace.cycle_time_ms >= trace.critical_path_ms >= 0
        assert trace.rows_extracted >= 0
        assert trace.rows_loaded >= 0
        for op_trace in trace.operations.values():
            assert op_trace.rows_in >= 0 and op_trace.rows_out >= 0
            assert op_trace.time_ms >= 0
            assert 0 <= op_trace.null_rows <= op_trace.rows_out + 1e-9
            assert 0 <= op_trace.duplicate_rows <= op_trace.rows_out + 1e-9
            assert 0 <= op_trace.error_rows <= op_trace.rows_out + 1e-9
        # lost work can never exceed the total work of the run times the
        # number of failures
        total_work = sum(t.time_ms for t in trace.operations.values())
        assert trace.lost_work_ms <= total_work * max(1, len(trace.failures)) + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(flow=linear_flows(), seed=st.integers(min_value=0, max_value=1_000))
    def test_simulation_is_deterministic(self, flow, seed):
        a = ETLSimulator(flow, SimulationConfig(runs=2, seed=seed)).run()
        b = ETLSimulator(flow, SimulationConfig(runs=2, seed=seed)).run()
        assert a.summary() == b.summary()


# --------------------------------------------------------------------------
# Pareto skyline invariants
# --------------------------------------------------------------------------


class TestParetoProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_skyline_definition(self, points):
        front = pareto_front(points)
        assert front, "the skyline of a non-empty set is non-empty"
        front_set = set(front)
        # no skyline point is dominated by any other point
        for i in front:
            for j in range(len(points)):
                if i == j:
                    continue
                dominates = all(points[j][k] >= points[i][k] for k in range(3)) and any(
                    points[j][k] > points[i][k] for k in range(3)
                )
                assert not dominates
        # every non-skyline point is dominated by some point
        for i in range(len(points)):
            if i in front_set:
                continue
            assert any(
                all(points[j][k] >= points[i][k] for k in range(3))
                and any(points[j][k] > points[i][k] for k in range(3))
                for j in range(len(points))
            )

    @settings(max_examples=40, deadline=None)
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_skyline_is_insensitive_to_order(self, points):
        front = {tuple(points[i]) for i in pareto_front(points)}
        reversed_points = list(reversed(points))
        front_reversed = {tuple(reversed_points[i]) for i in pareto_front(reversed_points)}
        assert front == front_reversed

    @settings(max_examples=40, deadline=None)
    @given(
        maximum=st.tuples(
            st.floats(min_value=50, max_value=100, allow_nan=False),
            st.floats(min_value=50, max_value=100, allow_nan=False),
        ),
        others=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=49, allow_nan=False),
                st.floats(min_value=0, max_value=49, allow_nan=False),
            ),
            max_size=20,
        ),
    )
    def test_a_globally_best_point_is_always_on_the_skyline(self, maximum, others):
        points = others + [maximum]
        front = pareto_front(points)
        assert len(points) - 1 in front


# --------------------------------------------------------------------------
# Measure-value invariants
# --------------------------------------------------------------------------


class TestMeasureValueProperties:
    @settings(max_examples=60)
    @given(
        baseline=st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
        factor=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        higher_is_better=st.booleans(),
    )
    def test_relative_change_sign_convention(self, baseline, factor, higher_is_better):
        base = MeasureValue("m", QualityCharacteristic.PERFORMANCE, baseline, 0.5, higher_is_better)
        new = MeasureValue(
            "m", QualityCharacteristic.PERFORMANCE, baseline * factor, 0.5, higher_is_better
        )
        change = new.relative_change(base)
        if factor == pytest.approx(1.0):
            assert change == pytest.approx(0.0, abs=1e-9)
        elif (factor > 1.0) == higher_is_better:
            assert change >= 0
        else:
            assert change <= 0
