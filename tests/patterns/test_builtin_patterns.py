"""Behavioural tests for the built-in Flow Component Patterns."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.etl.operations import OperationKind
from repro.etl.validation import is_valid
from repro.patterns.base import ApplicationPointType
from repro.patterns.data_quality import (
    CrosscheckSources,
    FilterNullValues,
    RemoveDuplicateEntries,
)
from repro.patterns.graph_level import (
    AdjustScheduleFrequency,
    EncryptDataFlow,
    RoleBasedAccessControl,
    UpgradeResourceTier,
)
from repro.patterns.performance import HorizontalPartitionTask, ParallelizeTask
from repro.patterns.reliability import AddCheckpoint


def _best_point(pattern, flow):
    points = pattern.find_application_points(flow)
    assert points, f"{pattern.name} found no application points"
    return max(points, key=lambda p: p.fitness)


class TestFilterNullValues:
    def test_application_points_require_nullable_fields(self, linear_flow):
        points = FilterNullValues().find_application_points(linear_flow)
        assert points
        for point in points:
            schema = linear_flow.edge(*point.edge).schema
            assert schema.nullable_fields

    def test_fitness_is_highest_near_sources(self, small_purchases):
        pattern = FilterNullValues()
        points = pattern.find_application_points(small_purchases)
        by_edge = {p.edge: p.fitness for p in points}
        source_edges = [
            p for p in points
            if small_purchases.operation(p.edge[0]).kind.is_source
        ]
        assert source_edges
        max_fitness = max(by_edge.values())
        assert all(p.fitness == pytest.approx(max_fitness) for p in source_edges)

    def test_apply_inserts_filter_null_operation(self, linear_flow):
        pattern = FilterNullValues()
        point = _best_point(pattern, linear_flow)
        new_flow = pattern.apply(linear_flow, point)
        assert new_flow.node_count == linear_flow.node_count + 1
        assert new_flow.operations_of_kind(OperationKind.FILTER_NULLS)
        assert is_valid(new_flow)
        assert not linear_flow.operations_of_kind(OperationKind.FILTER_NULLS)

    def test_not_applicable_next_to_existing_filter(self, linear_flow):
        pattern = FilterNullValues()
        point = _best_point(pattern, linear_flow)
        once = pattern.apply(linear_flow, point)
        # the replaced edge no longer exists; the edges adjacent to the new
        # null filter must not be valid application points again
        new_points = pattern.find_application_points(once)
        filter_ids = {op.op_id for op in once.operations_of_kind(OperationKind.FILTER_NULLS)}
        for p in new_points:
            assert not (set(p.edge) & filter_ids)


class TestRemoveDuplicateEntries:
    def test_apply_inserts_deduplicate(self, linear_flow):
        pattern = RemoveDuplicateEntries()
        point = _best_point(pattern, linear_flow)
        new_flow = pattern.apply(linear_flow, point)
        dedups = new_flow.operations_of_kind(OperationKind.DEDUPLICATE)
        assert len(dedups) == 1
        # key fields of the edge schema become the deduplication keys
        assert dedups[0].config["keys"] == ["id"]

    def test_improves_attribute(self):
        from repro.quality.framework import QualityCharacteristic

        assert QualityCharacteristic.DATA_QUALITY in RemoveDuplicateEntries().improves


class TestCrosscheckSources:
    def test_apply_inserts_crosscheck_with_reference(self, linear_flow):
        pattern = CrosscheckSources(reference_source="master_data", reference_rows=100)
        point = _best_point(pattern, linear_flow)
        new_flow = pattern.apply(linear_flow, point)
        crosschecks = new_flow.operations_of_kind(OperationKind.CROSSCHECK)
        assert len(crosschecks) == 1
        assert crosschecks[0].config["reference"] == "master_data"
        assert is_valid(new_flow)


class TestParallelizeTask:
    def test_points_are_costly_non_structural_nodes(self, small_purchases):
        pattern = ParallelizeTask(degree=4)
        points = pattern.find_application_points(small_purchases)
        assert points
        for point in points:
            op = small_purchases.operation(point.node_id)
            assert not op.kind.is_source and not op.kind.is_sink
            assert not op.kind.is_router and not op.kind.is_merger

    def test_best_point_is_the_most_expensive_task(self, small_purchases):
        pattern = ParallelizeTask(degree=4)
        point = _best_point(pattern, small_purchases)
        op = small_purchases.operation(point.node_id)
        max_cost = max(o.properties.cost_per_tuple for o in small_purchases.operations())
        assert op.properties.cost_per_tuple == pytest.approx(max_cost)
        assert point.fitness == pytest.approx(1.0)

    def test_apply_sets_parallelism_without_topology_change(self, small_purchases):
        pattern = ParallelizeTask(degree=4)
        point = _best_point(pattern, small_purchases)
        new_flow = pattern.apply(small_purchases, point)
        assert new_flow.node_count == small_purchases.node_count
        assert new_flow.operation(point.node_id).parallelism == 4
        assert small_purchases.operation(point.node_id).parallelism == 1

    def test_already_parallel_task_not_applicable_again(self, small_purchases):
        pattern = ParallelizeTask(degree=4)
        point = _best_point(pattern, small_purchases)
        new_flow = pattern.apply(small_purchases, point)
        remaining = {p.node_id for p in pattern.find_application_points(new_flow)}
        assert point.node_id not in remaining

    def test_invalid_degree_rejected(self):
        with pytest.raises(ValueError):
            ParallelizeTask(degree=1)


class TestHorizontalPartitionTask:
    def test_apply_builds_partition_copies_merge(self, small_purchases):
        pattern = HorizontalPartitionTask(partitions=2)
        point = _best_point(pattern, small_purchases)
        original = small_purchases.operation(point.node_id)
        new_flow = pattern.apply(small_purchases, point)
        # original replaced by partition + 2 copies + merge -> net +3 nodes
        assert new_flow.node_count == small_purchases.node_count + 3
        assert point.node_id not in new_flow
        assert new_flow.operations_of_kind(OperationKind.PARTITION)
        assert new_flow.operations_of_kind(OperationKind.MERGE)
        copies = [
            op for op in new_flow.operations()
            if op.kind is original.kind and "Group_" in op.name
        ]
        assert len(copies) == 2
        assert is_valid(new_flow)

    def test_copies_preserve_cost_model(self, small_purchases):
        pattern = HorizontalPartitionTask(partitions=3)
        point = _best_point(pattern, small_purchases)
        original = small_purchases.operation(point.node_id)
        new_flow = pattern.apply(small_purchases, point)
        copies = [op for op in new_flow.operations() if "Group_" in op.name]
        assert len(copies) == 3
        for copy in copies:
            assert copy.properties.cost_per_tuple == pytest.approx(
                original.properties.cost_per_tuple
            )

    def test_blocking_operations_are_excluded(self, branching_flow):
        pattern = HorizontalPartitionTask()
        points = pattern.find_application_points(branching_flow)
        for point in points:
            assert not branching_flow.operation(point.node_id).kind.is_blocking

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            HorizontalPartitionTask(partitions=1)


class TestAddCheckpoint:
    def test_points_exclude_source_and_sink_edges(self, small_purchases):
        pattern = AddCheckpoint()
        points = pattern.find_application_points(small_purchases)
        assert points
        for point in points:
            source_op = small_purchases.operation(point.edge[0])
            target_op = small_purchases.operation(point.edge[1])
            assert not source_op.kind.is_source
            assert not target_op.kind.is_sink

    def test_fitness_grows_with_upstream_cost(self, small_purchases):
        pattern = AddCheckpoint()
        points = pattern.find_application_points(small_purchases)
        by_distance = sorted(
            points, key=lambda p: small_purchases.distance_from_sources(p.edge[0])
        )
        assert by_distance[0].fitness <= by_distance[-1].fitness

    def test_apply_inserts_checkpoint(self, small_purchases):
        pattern = AddCheckpoint()
        point = _best_point(pattern, small_purchases)
        new_flow = pattern.apply(small_purchases, point)
        assert new_flow.operations_of_kind(OperationKind.CHECKPOINT)
        assert is_valid(new_flow)

    def test_no_double_checkpoint_on_same_edge(self, small_purchases):
        pattern = AddCheckpoint()
        point = _best_point(pattern, small_purchases)
        once = pattern.apply(small_purchases, point)
        checkpoint_ids = {op.op_id for op in once.operations_of_kind(OperationKind.CHECKPOINT)}
        for p in pattern.find_application_points(once):
            assert not (set(p.edge) & checkpoint_ids)


    def test_fitness_does_not_depend_on_the_hash_seed(self):
        """The upstream cost is summed in id order, never in set (hash) order."""
        assert _checkpoint_fitness(0) == _checkpoint_fitness(6)


_CHECKPOINT_FITNESS = """
from repro.patterns.reliability import AddCheckpoint
from repro.workloads import tpch_refresh_flow

points = AddCheckpoint().find_application_points(tpch_refresh_flow())
print(sorted((point.edge, repr(point.fitness)) for point in points))
"""


def _checkpoint_fitness(hash_seed: int) -> str:
    """Every AddCheckpoint point's fitness on TPC-H, printed under one hash seed."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _CHECKPOINT_FITNESS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout


class TestGraphLevelPatterns:
    @pytest.mark.parametrize(
        "pattern,key,value",
        [
            (EncryptDataFlow(), "encryption", True),
            (RoleBasedAccessControl(), "access_control", "role_based"),
            (UpgradeResourceTier("xlarge"), "resource_tier", "xlarge"),
            (AdjustScheduleFrequency(96.0), "schedule_frequency_per_day", 96.0),
        ],
    )
    def test_apply_sets_annotation(self, linear_flow, pattern, key, value):
        points = pattern.find_application_points(linear_flow)
        assert len(points) == 1
        assert points[0].point_type is ApplicationPointType.GRAPH
        new_flow = pattern.apply(linear_flow, points[0])
        assert new_flow.annotations[key] == value
        assert key not in linear_flow.annotations

    def test_not_applicable_twice(self, linear_flow):
        pattern = EncryptDataFlow()
        point = pattern.find_application_points(linear_flow)[0]
        once = pattern.apply(linear_flow, point)
        assert pattern.find_application_points(once) == []

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            AdjustScheduleFrequency(0.0)
