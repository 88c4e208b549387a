"""Compiler and executor behaviour: plans, determinism, error routing.

The recovery matrix mirrors the paper's reliability patterns: a node
covered by an upstream ``AddCheckpoint`` savepoint may retry (replaying
the persisted intermediate), and exhausted retries route to the
configured exhaustion branch -- ``raise`` (default), ``skip`` (empty
frame downstream) or ``dead_letter`` (recorded on the report) -- instead
of tearing the whole run down node-by-node.
"""

from __future__ import annotations

import pytest

from repro.core.planner import Planner
from repro.etl.builder import FlowBuilder
from repro.etl.operations import Operation, OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.exec import (
    CompileError,
    ExecutionError,
    FlowExecutor,
    LocalBackend,
    RecoveryPolicy,
    compile_flow,
)
from repro.workloads import calibration_configuration, purchases_flow, tpch_refresh_flow
from tests.conftest import set_config


def _schema() -> Schema:
    return Schema.of(
        Field("id", DataType.INTEGER, nullable=False, key=True),
        Field("value", DataType.INTEGER, nullable=True),
    )


def _faulty_flow(fail_times: int, with_checkpoint: bool):
    """extract -> [checkpoint] -> faulty derive -> load."""
    builder = FlowBuilder("faulty")
    src = builder.extract_table("src", schema=_schema(), rows=60, null_rate=0.1)
    upstream = src
    if with_checkpoint:
        upstream = builder.add(
            OperationKind.CHECKPOINT, "cp", config={"savepoint": "sp"}, after=src
        )
    faulty = builder.derive(
        "faulty", expressions={"twice": "value * 2"}, after=upstream
    )
    set_config(builder.flow, faulty.op_id, fail_times=fail_times)
    builder.load_table("sink", after=faulty)
    return builder.build()


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------


def test_compile_assigns_slots_and_savepoint_cover():
    builder = FlowBuilder("routed")
    src = builder.extract_table("src", schema=_schema(), rows=40)
    checkpoint = builder.add(
        OperationKind.CHECKPOINT, "cp", config={"savepoint": "sp"}, after=src
    )
    split = builder.split("split", outputs=2, after=checkpoint)
    builder.load_table("sink_a", after=split)
    builder.load_table("sink_b", after=split)
    plan = compile_flow(builder.build())

    assert plan.node("split").fanout == 2
    slots = sorted(
        plan.node(sink).inputs[0][1] for sink in ("sink_a", "sink_b")
    )
    assert slots == [0, 1], "each split successor must read its own output slot"
    assert plan.savepoint_cover.get("split") == "cp"
    assert plan.savepoint_cover.get("sink_a") == "cp"
    assert plan.savepoint_cover.get("src") is None
    assert sorted(plan.sink_ids) == ["sink_a", "sink_b"]


def test_compile_rejects_unsupported_kinds():
    builder = FlowBuilder("pivoting")
    src = builder.extract_table("src", schema=_schema(), rows=10)
    pivot = builder.add(OperationKind.PIVOT, "pivot", after=src)
    builder.load_table("sink", after=pivot)
    with pytest.raises(CompileError, match="pivot"):
        compile_flow(builder.build())


def test_compile_rejects_empty_flow():
    from repro.etl.graph import ETLGraph

    with pytest.raises(CompileError):
        compile_flow(ETLGraph("empty"))


# ----------------------------------------------------------------------
# Execution of the shipped workloads
# ----------------------------------------------------------------------


def test_tpch_flow_executes_deterministically():
    flow = tpch_refresh_flow(scale=0.02)
    first = FlowExecutor(data_seed=7).execute(flow)
    second = FlowExecutor(data_seed=7).execute(flow)
    assert first.rows_loaded > 0
    assert first.frame_bytes() == second.frame_bytes()
    assert set(first.statuses.values()) == {"ok"}


def test_purchases_flow_executes():
    report = FlowExecutor(data_seed=7).execute(purchases_flow(rows_per_source=500))
    assert set(report.statuses.values()) == {"ok"}


def test_different_data_seeds_differ():
    flow = tpch_refresh_flow(scale=0.02)
    first = FlowExecutor(data_seed=7).execute(flow)
    second = FlowExecutor(data_seed=8).execute(flow)
    assert first.frame_bytes() != second.frame_bytes()


def test_planned_alternatives_all_execute():
    """Every alternative the planner produces must be executable."""
    flow = tpch_refresh_flow(scale=0.01)
    planner = Planner(
        configuration=calibration_configuration(
            pattern_budget=1, seed=11, simulation_runs=1, max_alternatives=30
        )
    )
    result = planner.plan(flow)
    assert result.alternatives
    executor = FlowExecutor(data_seed=7)
    for alternative in result.alternatives:
        report = executor.execute(alternative.flow)
        assert report.rows_loaded >= 0
        assert not report.dead_letters


def test_join_orientation_is_column_resolved():
    """Swapping join predecessors must not change the joined result.

    Pattern application copies reorder predecessor lists wholesale, so
    input order is not semantic: the probe side is resolved from which
    frame actually carries the join key.
    """
    def build(swapped: bool):
        builder = FlowBuilder("orient")
        orders = builder.extract_table(
            "orders",
            schema=Schema.of(
                Field("o_id", DataType.INTEGER, nullable=False, key=True),
                Field("cust", DataType.INTEGER, nullable=True),
            ),
            rows=50,
        )
        customers = builder.extract_table(
            "customers",
            schema=Schema.of(
                Field("cust", DataType.INTEGER, nullable=False, key=True),
                Field("region", DataType.STRING, nullable=True),
            ),
            rows=30,
        )
        pair = [customers, orders] if swapped else [orders, customers]
        join = builder.add(
            OperationKind.JOIN, "join", config={"on": ["cust"]}, after=pair
        )
        builder.load_table("sink", after=join)
        return builder.build()

    straight = FlowExecutor(data_seed=5).execute(build(False))
    swapped = FlowExecutor(data_seed=5).execute(build(True))
    assert straight.rows_loaded == swapped.rows_loaded > 0


# ----------------------------------------------------------------------
# Recovery routing
# ----------------------------------------------------------------------


def test_checkpointed_fault_recovers():
    report = FlowExecutor(data_seed=7).execute(_faulty_flow(1, with_checkpoint=True))
    assert report.statuses["faulty"] == "recovered"
    assert report.node_runs[-1].status == "ok"
    assert report.rows_loaded > 0
    clean = FlowExecutor(data_seed=7).execute(_faulty_flow(0, with_checkpoint=True))
    assert report.frame_bytes() == clean.frame_bytes(), (
        "recovery must replay the savepoint, not change the data"
    )


def test_unpatterned_fault_raises():
    with pytest.raises(ExecutionError, match="faulty"):
        FlowExecutor(data_seed=7).execute(_faulty_flow(1, with_checkpoint=False))


def test_exhausted_retries_raise_by_default():
    with pytest.raises(ExecutionError):
        FlowExecutor(
            policy=RecoveryPolicy(max_retries=1), data_seed=7
        ).execute(_faulty_flow(5, with_checkpoint=True))


def test_exhaustion_skip_completes_with_empty_branch():
    executor = FlowExecutor(
        policy=RecoveryPolicy(max_retries=0, on_exhaustion="skip"), data_seed=7
    )
    report = executor.execute(_faulty_flow(5, with_checkpoint=True))
    assert report.statuses["faulty"] == "skipped"
    assert report.rows_loaded == 0


def test_exhaustion_dead_letter_records_the_failure():
    executor = FlowExecutor(
        policy=RecoveryPolicy(max_retries=0, on_exhaustion="dead_letter"), data_seed=7
    )
    report = executor.execute(_faulty_flow(5, with_checkpoint=True))
    assert report.statuses["faulty"] == "dead_letter"
    assert "faulty" in report.dead_letters
    entry = report.dead_letters["faulty"]
    assert entry["rows_in"] > 0
    assert "injected fault" in entry["error"] or "fault" in entry["error"]


def test_recovery_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RecoveryPolicy(on_exhaustion="explode")


# ----------------------------------------------------------------------
# Backend instances
# ----------------------------------------------------------------------


def test_executor_defaults_to_the_local_backend():
    assert isinstance(FlowExecutor().backend, LocalBackend)
    backend = LocalBackend()
    assert FlowExecutor(backend=backend).backend is backend


def test_report_to_dict_is_json_friendly():
    import json

    report = FlowExecutor(data_seed=7).execute(_faulty_flow(0, with_checkpoint=True))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["flow"] == "faulty"
    assert payload["backend"] == "local"
    assert {run["op_id"] for run in payload["nodes"]} >= {"src", "faulty", "sink"}
