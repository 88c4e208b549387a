"""Unit tests for failure injection and checkpoint recovery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.etl.builder import FlowBuilder
from repro.etl.operations import OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.simulator.failures import FailureInjector
from tests.conftest import set_properties
from tests.reference_simulator import reference_lost_work


def _schema():
    return Schema.of(Field("id", DataType.INTEGER, nullable=False, key=True))


def _flow_with_checkpoint(with_checkpoint: bool):
    builder = FlowBuilder("reliability")
    src = builder.extract_table("src", schema=_schema(), rows=100)
    flt = builder.filter("flt", predicate="p", selectivity=0.9, after=src)
    if with_checkpoint:
        checkpoint = builder.add(OperationKind.CHECKPOINT, "cp", after=flt)
        previous = checkpoint
    else:
        previous = flt
    derive = builder.derive("expensive", cost_per_tuple=0.5, after=previous)
    derive = builder.set_properties(derive, failure_rate=0.5)
    builder.load_table("load", after=derive)
    return builder.build(), derive


class TestFailureSampling:
    def test_no_failures_with_zero_rates(self, linear_flow):
        # strip the failure rate configured by the fixture
        for op in linear_flow.operations():
            set_properties(linear_flow, op.op_id, failure_rate=0.0)
        injector = FailureInjector(linear_flow)
        draws = {op.op_id: 0.0 for op in linear_flow.operations()}
        assert injector.sample_failures(draws) == []
        assert injector.flow_failure_probability() == pytest.approx(0.0)

    def test_failure_sampled_when_draw_below_rate(self, linear_flow):
        injector = FailureInjector(linear_flow)
        failing = next(
            op for op in linear_flow.operations() if op.properties.failure_rate > 0
        )
        draws = {op.op_id: 1.0 for op in linear_flow.operations()}
        draws[failing.op_id] = failing.properties.failure_rate / 2
        assert injector.sample_failures(draws) == [failing.op_id]

    def test_flow_failure_probability_combines_rates(self):
        flow, _ = _flow_with_checkpoint(False)
        injector = FailureInjector(flow)
        assert injector.flow_failure_probability() == pytest.approx(0.5)

    def test_failure_probability_of_single_operation(self, linear_flow):
        injector = FailureInjector(linear_flow)
        failing = next(
            op for op in linear_flow.operations() if op.properties.failure_rate > 0
        )
        assert injector.failure_probability(failing.op_id) == pytest.approx(
            failing.properties.failure_rate
        )


class TestRecovery:
    def test_without_checkpoint_all_upstream_work_is_lost(self):
        flow, derive = _flow_with_checkpoint(False)
        injector = FailureInjector(flow)
        times = {op.op_id: 10.0 for op in flow.operations()}
        event = injector.lost_work_for_failure(derive.op_id, times)
        # src + flt + derive itself
        assert event.lost_work_ms == pytest.approx(30.0)
        assert event.recovered_from == ""

    def test_with_checkpoint_only_work_after_it_is_lost(self):
        flow, derive = _flow_with_checkpoint(True)
        injector = FailureInjector(flow)
        assert injector.checkpoint_ids
        times = {op.op_id: 10.0 for op in flow.operations()}
        event = injector.lost_work_for_failure(derive.op_id, times)
        # only the derive itself must be repeated
        assert event.lost_work_ms == pytest.approx(10.0)
        assert event.recovered_from in injector.checkpoint_ids

    def test_checkpoint_after_failure_point_does_not_protect(self):
        builder = FlowBuilder("late_cp")
        src = builder.extract_table("src", schema=_schema(), rows=100)
        derive = builder.derive("expensive", cost_per_tuple=0.5, after=src)
        derive = builder.set_properties(derive, failure_rate=0.5)
        builder.add(OperationKind.CHECKPOINT, "cp", after=derive)
        builder.load_table("load")
        flow = builder.build()
        injector = FailureInjector(flow)
        times = {op.op_id: 10.0 for op in flow.operations()}
        event = injector.lost_work_for_failure(derive.op_id, times)
        assert event.recovered_from == ""
        assert event.lost_work_ms == pytest.approx(20.0)

    def test_nearest_checkpoint_is_used(self):
        builder = FlowBuilder("two_cp")
        src = builder.extract_table("src", schema=_schema(), rows=100)
        cp1 = builder.add(OperationKind.CHECKPOINT, "cp1", after=src)
        mid = builder.derive("mid", cost_per_tuple=0.1, after=cp1)
        cp2 = builder.add(OperationKind.CHECKPOINT, "cp2", after=mid)
        final = builder.derive("final", cost_per_tuple=0.5, after=cp2)
        final = builder.set_properties(final, failure_rate=0.5)
        builder.load_table("load", after=final)
        flow = builder.build()
        injector = FailureInjector(flow)
        times = {op.op_id: 10.0 for op in flow.operations()}
        event = injector.lost_work_for_failure(final.op_id, times)
        assert event.recovered_from == cp2.op_id
        assert event.lost_work_ms == pytest.approx(10.0)

    def test_recovery_events_batch(self):
        flow, derive = _flow_with_checkpoint(True)
        injector = FailureInjector(flow)
        times = {op.op_id: 5.0 for op in flow.operations()}
        events = injector.recovery_events([derive.op_id, derive.op_id], times)
        assert len(events) == 2
        assert all(e.op_id == derive.op_id for e in events)


#: Plans TPC-H and prints a digest of the result's fingerprint.  At this
#: size a budget-2 plan has alternatives with several checkpoints
#: upstream of a failing operation, so lost work sums many operations.
_PLAN_DIGEST = """
import hashlib
from repro.core import Planner, ProcessingConfiguration
from repro.workloads import tpch_refresh_flow
configuration = ProcessingConfiguration(pattern_budget=2, simulation_runs=3)
result = Planner(configuration=configuration).plan(tpch_refresh_flow(scale=0.05))
print(hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest())
"""


def _plan_digest(hash_seed: int) -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _PLAN_DIGEST],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return completed.stdout.strip()


@pytest.mark.slow
def test_plans_do_not_depend_on_the_hash_seed():
    """Lost work is summed, and the nearest checkpoint picked, in a fixed
    order, so string hashing never reaches the last bits of a profile."""
    assert _plan_digest(0) == _plan_digest(2)


class TestRecoveryPlanMemo:
    def test_repeated_failures_sum_the_times_they_are_given(self):
        flow, derive = _flow_with_checkpoint(True)
        injector = FailureInjector(flow)
        first = injector.lost_work_for_failure(derive.op_id, {derive.op_id: 10.0})
        second = injector.lost_work_for_failure(derive.op_id, {derive.op_id: 4.0})
        assert (first.lost_work_ms, second.lost_work_ms) == (10.0, 4.0)
        assert first.recovered_from == second.recovered_from == "cp"

    def test_matches_fresh_graph_queries_for_every_operation(self):
        for with_checkpoint in (False, True):
            flow, _ = _flow_with_checkpoint(with_checkpoint)
            injector = FailureInjector(flow)
            times = {op.op_id: 1.5 * (index + 1) for index, op in enumerate(flow.operations())}
            for _ in range(2):  # the second pass reads the memoized plans
                for op_id in flow.operation_ids():
                    assert injector.lost_work_for_failure(op_id, times) == reference_lost_work(
                        flow, op_id, times
                    )
