"""Property-based guarantees of the execution layer.

Two invariants over seeded random flows from the workload generator:

* **Determinism** -- compiling and executing the same flow twice with the
  same ``data_seed`` produces byte-identical loaded frames (the
  foundation the measured-calibration benchmark stands on), and a
  different ``data_seed`` is allowed to (and in practice does) differ.
* **Recovery routing** -- grafting the paper's ``AddCheckpoint``
  reliability pattern makes the node downstream of the checkpoint
  survivable: with an injected fault it *recovers* (savepoint replay +
  retry) and loads the same bytes as a fault-free run, while the same
  fault in the un-patterned flow surfaces as an :class:`ExecutionError`.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.etl.operations import OperationKind
from repro.exec import ExecutionError, FlowExecutor
from repro.patterns.registry import default_palette
from repro.workloads import RandomFlowConfig, random_flow
from tests.conftest import set_config


def _small_flow(seed: int, operations: int):
    return random_flow(
        RandomFlowConfig(
            operations=operations, sources=2, rows_per_source=150, seed=seed
        )
    )


def _checkpoint_pattern():
    for pattern in default_palette():
        if type(pattern).__name__ == "AddCheckpoint":
            return pattern
    raise AssertionError("AddCheckpoint missing from the default palette")


class TestExecutionDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        data_seed=st.integers(min_value=0, max_value=50),
    )
    def test_same_seed_same_bytes(self, seed: int, operations: int, data_seed: int):
        flow = _small_flow(seed, operations)
        first = FlowExecutor(data_seed=data_seed).execute(flow)
        second = FlowExecutor(data_seed=data_seed).execute(flow)
        assert first.frame_bytes() == second.frame_bytes()
        assert first.statuses == second.statuses
        assert set(first.statuses.values()) == {"ok"}

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_executing_never_mutates_the_flow(self, seed: int):
        flow = _small_flow(seed, 12)
        before = flow.to_dict()
        FlowExecutor(data_seed=7).execute(flow)
        assert flow.to_dict() == before


class TestRecoveryRouting:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        operations=st.integers(min_value=8, max_value=14),
        point_pick=st.integers(min_value=0, max_value=63),
    )
    def test_checkpointed_fault_recovers_unpatterned_raises(
        self, seed: int, operations: int, point_pick: int
    ):
        base = _small_flow(seed, operations)
        pattern = _checkpoint_pattern()
        points = pattern.find_application_points(base)
        assume(points)
        patterned = pattern.apply(base, points[point_pick % len(points)])

        checkpoints = patterned.operations_of_kind(OperationKind.CHECKPOINT)
        assert checkpoints, "AddCheckpoint grafted no checkpoint node"
        checkpoint = checkpoints[0]
        successors = list(patterned.successors(checkpoint.op_id))
        assume(successors)
        victim = successors[0].op_id

        set_config(patterned, victim, fail_times=1)
        report = FlowExecutor(data_seed=7).execute(patterned)
        assert report.statuses[victim] == "recovered"

        # The recovered run is indistinguishable from a fault-free one.
        clean_config = dict(patterned.operation(victim).config)
        del clean_config["fail_times"]
        patterned.update_operation(victim, config=clean_config)
        clean = FlowExecutor(data_seed=7).execute(patterned)
        assert report.frame_bytes() == clean.frame_bytes()

        # The same fault without the reliability pattern tears the run down.
        unpatterned = _small_flow(seed, operations)
        assert victim in {op.op_id for op in unpatterned.operations()}
        set_config(unpatterned, victim, fail_times=1)
        with pytest.raises(ExecutionError):
            FlowExecutor(data_seed=7).execute(unpatterned)
