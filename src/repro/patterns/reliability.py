"""Reliability Flow Component Patterns.

Fig. 2b of the paper shows the reliability construct: a *savepoint* that
persists intermediary data so that, if an error occurs downstream, the
process resumes from the savepoint instead of re-running the whole flow.
``AddCheckpoint`` implements it as an edge pattern inserting a
``CHECKPOINT`` operation; the simulator's failure injector then charges
only the work performed since the checkpoint when a protected operation
fails.
"""

from __future__ import annotations

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.properties import OperationProperties
from repro.etl.schema import Schema
from repro.etl.subflow import insert_on_edge
from repro.patterns.base import (
    ApplicationPoint,
    ApplicationPointType,
    FlowComponentPattern,
    Prerequisite,
)
from repro.quality.framework import QualityCharacteristic


class AddCheckpoint(FlowComponentPattern):
    """Persist intermediary data at a savepoint for failure recovery.

    Heuristic: "the addition of a checkpoint is encouraged after the
    execution of the most complex operations of the ETL flow, in order to
    avoid the repetition of process-intensive tasks in case of a
    recovery" (Section 3).  The fitness of an edge therefore grows with
    the processing cost accumulated upstream of it.
    """

    name = "AddCheckpoint"
    description = "Persist intermediary data to a savepoint for recovery"
    improves = (QualityCharacteristic.RELIABILITY,)
    point_type = ApplicationPointType.EDGE

    def __init__(self, io_cost_per_tuple: float = 0.006, fixed_io_cost: float = 15.0):
        self.io_cost_per_tuple = io_cost_per_tuple
        self.fixed_io_cost = fixed_io_cost

    # -- prerequisites ---------------------------------------------------

    def _carries_data(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        return len(self._edge_of(flow, point).schema) > 0

    def _not_adjacent_to_checkpoint(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        source, target = point.edge
        kinds = {flow.operation(source).kind, flow.operation(target).kind}
        return OperationKind.CHECKPOINT not in kinds

    def _not_adjacent_to_boundary(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        # Persisting immediately after extraction or immediately before the
        # final load protects (almost) nothing; such points are excluded.
        source, target = point.edge
        return not (
            flow.operation(source).kind.is_source or flow.operation(target).kind.is_sink
        )

    def prerequisites(self) -> tuple[Prerequisite, ...]:
        return (
            Prerequisite(
                "data_edge",
                self._carries_data,
                "the transition carries a non-empty record schema",
            ),
            Prerequisite(
                "no_adjacent_checkpoint",
                self._not_adjacent_to_checkpoint,
                "no checkpoint already adjacent to the transition",
            ),
            Prerequisite(
                "inside_the_flow",
                self._not_adjacent_to_boundary,
                "the transition is neither right after a source nor right before a sink",
            ),
        )

    # -- heuristics -------------------------------------------------------

    def fitness(self, flow: ETLGraph, point: ApplicationPoint) -> float:
        source_id = point.edge[0]
        # Summed in id order: float addition is not associative, so a
        # hash-ordered sum would move the last bits with PYTHONHASHSEED
        # and with the flow's insertion history.
        upstream = sorted(flow.upstream_of(source_id) | {source_id})
        upstream_cost = sum(
            flow.operation(op_id).properties.cost_per_tuple
            + flow.operation(op_id).properties.fixed_cost / 1000.0
            for op_id in upstream
        )
        total_cost = sum(
            op.properties.cost_per_tuple + op.properties.fixed_cost / 1000.0
            for op in flow.operations()
        )
        if total_cost <= 0:
            return 0.0
        return min(1.0, upstream_cost / total_cost)

    # -- deployment -------------------------------------------------------

    def apply(self, flow: ETLGraph, point: ApplicationPoint) -> ETLGraph:
        edge = self._edge_of(flow, point)
        schema = edge.schema
        subflow = self._memoized_subflow(schema, lambda: self._build_subflow(schema))
        new_flow, _ = insert_on_edge(
            flow,
            *point.edge,
            subflow,
            description=f"{self.name} @ {point.describe()}",
        )
        return new_flow

    def _build_subflow(self, schema: Schema) -> ETLGraph:
        subflow = ETLGraph(name="fcp_add_checkpoint")
        checkpoint = Operation(
            kind=OperationKind.CHECKPOINT,
            name="persist_intermediary_data",
            op_id="persist_intermediary_data",
            output_schema=schema,
            config={"savepoint": "savepoint"},
            properties=OperationProperties(
                cost_per_tuple=self.io_cost_per_tuple,
                fixed_cost=self.fixed_io_cost,
            ),
        )
        subflow.add_operation(checkpoint)
        return subflow
