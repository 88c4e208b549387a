"""Data-quality Flow Component Patterns.

The palette of Fig. 6 lists three data-quality patterns:
``RemoveDuplicateEntries``, ``FilterNullValues`` and ``CrosscheckSources``.
All three apply on an edge of the host flow: the pattern sub-flow (a
single cleansing operation, or a small lookup/merge construct for the
crosscheck) is interposed between two consecutive operations.  Following
the paper's heuristics, their fitness is highest close to the extraction
operations, "to prevent cumulative side-effects of reduced data quality".
"""

from __future__ import annotations

from repro.etl.builder import FlowBuilder
from repro.etl.graph import ETLGraph
from repro.etl.operations import OperationKind
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

# Data-quality operations already present downstream make a second
# identical cleansing step useless; prerequisites below check for this.
_CLEANSING_KINDS_BY_PATTERN = {
    "FilterNullValues": OperationKind.FILTER_NULLS,
    "RemoveDuplicateEntries": OperationKind.DEDUPLICATE,
    "CrosscheckSources": OperationKind.CROSSCHECK,
}


def _source_proximity_fitness(flow: ETLGraph, point: ApplicationPoint) -> float:
    """Fitness decreasing with the distance of the edge from the sources."""
    source_id = point.edge[0]
    distance = flow.distance_from_sources(source_id)
    longest = max(flow.longest_path_length(), 1)
    return max(0.0, 1.0 - distance / (longest + 1))


class _EdgeCleansingPattern(FlowComponentPattern):
    """Shared machinery of the single-operation data-cleaning patterns."""

    point_type = ApplicationPointType.EDGE
    improves = (QualityCharacteristic.DATA_QUALITY,)
    cleansing_kind: OperationKind = OperationKind.CLEANSE

    def _not_already_cleansed(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        # The same cleansing operation immediately adjacent to the edge
        # would be redundant; elsewhere on the flow it is still allowed
        # (e.g. one null filter per source branch).
        source, target = point.edge
        adjacent = {flow.operation(source).kind, flow.operation(target).kind}
        return self.cleansing_kind not in adjacent

    def _non_empty_schema(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        return len(self._edge_of(flow, point).schema) > 0

    def prerequisites(self) -> tuple[Prerequisite, ...]:
        return (
            Prerequisite(
                "data_edge",
                self._non_empty_schema,
                "the transition carries a non-empty record schema",
            ),
            Prerequisite(
                "not_already_cleansed",
                self._not_already_cleansed,
                "no identical cleansing operation adjacent to the transition",
            ),
        )

    def fitness(self, flow: ETLGraph, point: ApplicationPoint) -> float:
        return _source_proximity_fitness(flow, point)

    def _build_subflow(self, schema: Schema) -> ETLGraph:
        raise NotImplementedError

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


class FilterNullValues(_EdgeCleansingPattern):
    """Delete entries with NULL values from the records crossing an edge.

    The pattern is itself an ETL flow consisting of only one operation -- a
    filter that deletes entries with null values from its input (the
    paper's running example of a FCP).
    """

    name = "FilterNullValues"
    description = "Filter out records containing NULL values"
    cleansing_kind = OperationKind.FILTER_NULLS

    def _has_nullable_fields(self, flow: ETLGraph, point: ApplicationPoint) -> bool:
        return len(self._edge_of(flow, point).schema.nullable_fields) > 0

    def prerequisites(self) -> tuple[Prerequisite, ...]:
        return super().prerequisites() + (
            Prerequisite(
                "nullable_fields",
                self._has_nullable_fields,
                "the transition schema contains at least one nullable field",
            ),
        )

    def _build_subflow(self, schema: Schema) -> ETLGraph:
        subflow = ETLGraph(name="fcp_filter_null_values")
        subflow.add_operation(
            _operation(
                OperationKind.FILTER_NULLS,
                "filter_null_values",
                schema.without_nulls(),
                cost_per_tuple=0.004,
            )
        )
        return subflow


class RemoveDuplicateEntries(_EdgeCleansingPattern):
    """Remove records whose key duplicates another record on the edge."""

    name = "RemoveDuplicateEntries"
    description = "Deduplicate records crossing the transition"
    cleansing_kind = OperationKind.DEDUPLICATE

    def _build_subflow(self, schema: Schema) -> ETLGraph:
        subflow = ETLGraph(name="fcp_remove_duplicates")
        key_fields = [f.name for f in schema.key_fields] or list(schema.names[:1])
        subflow.add_operation(
            _operation(
                OperationKind.DEDUPLICATE,
                "remove_duplicate_entries",
                schema,
                config={"keys": key_fields},
                cost_per_tuple=0.008,
                fixed_cost=10.0,
            )
        )
        return subflow


class CrosscheckSources(_EdgeCleansingPattern):
    """Crosscheck records against an alternative data source.

    A more elaborate data-quality FCP: the sub-flow extracts reference data
    from an alternative source, and a crosscheck operation corrects records
    that disagree with it.  Requires the configuration of an additional
    data source, modelled by the ``reference`` configuration entry.
    """

    name = "CrosscheckSources"
    description = "Crosscheck values against an alternative data source"
    cleansing_kind = OperationKind.CROSSCHECK

    def __init__(self, reference_source: str = "alternative_source", reference_rows: int = 500):
        self.reference_source = reference_source
        self.reference_rows = reference_rows

    def _build_subflow(self, schema: Schema) -> ETLGraph:
        # The crosscheck construct: the interposed operation consults the
        # alternative source configured on it.  It is kept as a single
        # node so the sub-flow has one entry and one exit; the alternative
        # source access is part of the operation configuration, as the
        # paper describes for "more elaborate implementations".
        subflow = ETLGraph(name="fcp_crosscheck_sources")
        subflow.add_operation(
            _operation(
                OperationKind.CROSSCHECK,
                "crosscheck_sources",
                schema,
                config={
                    "reference": self.reference_source,
                    "reference_rows": self.reference_rows,
                },
                cost_per_tuple=0.02,
                fixed_cost=25.0,
            )
        )
        return subflow


def _operation(kind, name, schema, config=None, **properties):
    """Small helper creating an operation with fresh properties.

    The operation identifier is fixed to ``name`` so that pattern
    deployment is deterministic (grafting derives unique host identifiers
    from it); repeated planning runs on the same flow therefore produce
    identically labelled alternatives.
    """
    from repro.etl.operations import Operation

    return Operation(
        kind=kind,
        name=name,
        op_id=name,
        output_schema=schema,
        config=config or {},
        properties=OperationProperties(**properties),
    )
