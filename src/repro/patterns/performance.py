"""Performance Flow Component Patterns.

Fig. 2a of the paper shows the two performance constructs this module
implements: *derive values with parallelism* (the ``ParallelizeTask``
pattern -- a node is replaced by multiple copies of itself running in
parallel) and *horizontal partitioning* (the task is split into a
``HORIZONTAL PARTITION`` router, per-partition copies of the task, and a
``MERGE`` that recombines the branches).
"""

from __future__ import annotations

from dataclasses import replace

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.properties import OperationProperties
from repro.etl.subflow import replace_node
from repro.patterns.base import (
    ApplicationPoint,
    ApplicationPointType,
    FlowComponentPattern,
    Prerequisite,
)
from repro.quality.framework import QualityCharacteristic

# Per-tuple cost (milliseconds) above which a task is considered
# computation-intensive enough to be worth parallelising.
_COSTLY_TASK_THRESHOLD_MS = 0.01


def _is_parallelizable_kind(operation: Operation) -> bool:
    """Whether an operation can be replaced by multiple copies of itself."""
    kind = operation.kind
    return not (
        kind.is_source
        or kind.is_sink
        or kind.is_router
        or kind.is_merger
        or kind in (OperationKind.CHECKPOINT, OperationKind.RECOVERY_BRANCH)
    )


def _cost_rank_fitness(flow: ETLGraph, node_id: str) -> float:
    """Fitness proportional to the node's share of the flow's per-tuple cost."""
    target = flow.operation(node_id)
    costs = [op.properties.cost_per_tuple for op in flow.operations()]
    max_cost = max(costs) if costs else 0.0
    if max_cost <= 0:
        return 0.0
    return target.properties.cost_per_tuple / max_cost


class ParallelizeTask(FlowComponentPattern):
    """Replace a computation-intensive task by parallel copies of itself.

    The valid application point is a node that can be replaced by multiple
    copies of itself (the paper's example for node application points).
    Deployment keeps the flow topology and simply raises the degree of
    parallelism of the task; the simulator divides the task's variable
    cost by the effective parallelism granted by the resource model.
    """

    name = "ParallelizeTask"
    description = "Execute a computation-intensive task with parallel copies"
    improves = (QualityCharacteristic.PERFORMANCE,)
    point_type = ApplicationPointType.NODE

    def __init__(self, degree: int = 4):
        if degree < 2:
            raise ValueError("parallelism degree must be at least 2")
        self.degree = degree

    def _parallelizable(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        return _is_parallelizable_kind(self._node_of(flow, point))

    def _costly(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        return (
            self._node_of(flow, point).properties.cost_per_tuple
            >= _COSTLY_TASK_THRESHOLD_MS
        )

    def _not_already_parallel(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        return self._node_of(flow, point).parallelism == 1

    def prerequisites(self) -> tuple[Prerequisite, ...]:
        return (
            Prerequisite(
                "replaceable_by_copies",
                self._parallelizable,
                "the operation can be replaced by multiple copies of itself",
            ),
            Prerequisite(
                "computation_intensive",
                self._costly,
                "the operation's per-tuple cost is significant",
            ),
            Prerequisite(
                "not_already_parallel",
                self._not_already_parallel,
                "the operation is not already parallelised",
            ),
        )

    def fitness(self, flow: ETLGraph, point: ApplicationPoint) -> float:
        return _cost_rank_fitness(flow, point.node_id)

    def apply(self, flow: ETLGraph, point: ApplicationPoint) -> ETLGraph:
        new_flow = flow.copy()
        operation = new_flow.operation(point.node_id)
        new_flow.update_operation(
            point.node_id,
            config={**operation.config, "parallelism": self.degree},
            name=f"{operation.name} (x{self.degree} parallel)",
        )
        new_flow.record_pattern(f"{self.name} @ {point.describe()} (degree={self.degree})")
        return new_flow


class HorizontalPartitionTask(FlowComponentPattern):
    """Split a task into per-partition copies behind a horizontal partition.

    Mirrors Fig. 2a: the ``DERIVE VALUES`` task is replaced by a
    ``HORIZONTAL PARTITION`` router, one task copy per partition (``DERIVE
    VALUES for Group_A`` / ``Group_B``), and a ``MERGE`` recombining the
    branches.  Unlike :class:`ParallelizeTask`, this changes the topology,
    so it trades manageability (more nodes, more merge elements) for
    performance.
    """

    name = "HorizontalPartitionTask"
    description = "Partition the input of a task and process partitions in parallel branches"
    improves = (QualityCharacteristic.PERFORMANCE,)
    point_type = ApplicationPointType.NODE

    def __init__(self, partitions: int = 2):
        if partitions < 2:
            raise ValueError("the pattern needs at least two partitions")
        self.partitions = partitions

    def _partitionable(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        operation = self._node_of(flow, point)
        return _is_parallelizable_kind(operation) and not operation.kind.is_blocking

    def _costly(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        return (
            self._node_of(flow, point).properties.cost_per_tuple
            >= _COSTLY_TASK_THRESHOLD_MS
        )

    def _has_partition_key(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        schema = self._node_of(flow, point).output_schema
        return len(schema) > 0

    def _single_input_output(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        node_id = point.node_id
        return flow.in_degree(node_id) == 1 and flow.out_degree(node_id) == 1

    def prerequisites(self) -> tuple[Prerequisite, ...]:
        return (
            Prerequisite(
                "partitionable_task",
                self._partitionable,
                "the operation processes rows independently (non-blocking, non-router)",
            ),
            Prerequisite(
                "computation_intensive",
                self._costly,
                "the operation's per-tuple cost is significant",
            ),
            Prerequisite(
                "partition_key_available",
                self._has_partition_key,
                "the operation schema offers a field usable as partition key",
            ),
            Prerequisite(
                "linear_neighbourhood",
                self._single_input_output,
                "the operation has exactly one input and one output transition",
            ),
        )

    def fitness(self, flow: ETLGraph, point: ApplicationPoint) -> float:
        return _cost_rank_fitness(flow, point.node_id)

    def apply(self, flow: ETLGraph, point: ApplicationPoint) -> ETLGraph:
        original = self._node_of(flow, point)
        subflow = self._memoized_subflow(original, lambda: self._build_subflow(original))
        new_flow, _ = replace_node(
            flow,
            point.node_id,
            subflow,
            description=f"{self.name} @ {point.describe()} ({self.partitions} partitions)",
        )
        return new_flow

    def _build_subflow(self, original: Operation) -> ETLGraph:
        schema = original.output_schema
        key_field = schema.names[0] if len(schema) else "key"
        subflow = ETLGraph(name=f"fcp_horizontal_partition_{original.op_id}")
        partition = Operation(
            kind=OperationKind.PARTITION,
            name=f"horizontal_partition_{original.name}",
            op_id=f"horizontal_partition_{original.op_id}",
            output_schema=schema,
            config={"key": key_field, "partitions": self.partitions},
            properties=OperationProperties(cost_per_tuple=0.002),
        )
        subflow.add_operation(partition)
        copies = []
        for index in range(self.partitions):
            group = chr(ord("A") + index) if index < 26 else str(index)
            copy = replace(
                original,
                op_id=f"{original.op_id}_group_{group}",
                name=f"{original.name} for Group_{group}",
            )
            subflow.add_operation(copy)
            subflow.add_edge(partition, copy)
            copies.append(copy)
        merge = Operation(
            kind=OperationKind.MERGE,
            name=f"merge_{original.name}",
            op_id=f"merge_{original.op_id}",
            output_schema=schema,
            properties=OperationProperties(cost_per_tuple=0.003),
        )
        subflow.add_operation(merge)
        for copy in copies:
            subflow.add_edge(copy, merge)
        return subflow
