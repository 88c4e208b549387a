"""Fluent builder for ETL flows.

The builder makes it convenient to express the linear-with-branches shape
of typical ETL processes (extract, chain of transformations, occasional
splits and joins, load) without manually wiring every edge, and it keeps
edge schemas consistent with the output schemas of preceding operations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Sequence

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.properties import OperationProperties
from repro.etl.schema import Schema


class FlowBuilder:
    """Incrementally construct an :class:`~repro.etl.graph.ETLGraph`.

    Example
    -------
    >>> builder = FlowBuilder("orders")
    >>> src = builder.extract_table("orders_src", schema=orders_schema, rows=1000)
    >>> flt = builder.filter("recent_orders", predicate="o_orderdate > :cutoff",
    ...                      selectivity=0.4, after=src)
    >>> builder.load_table("orders_dw", after=flt)
    >>> flow = builder.build()
    """

    def __init__(self, name: str = "etl_flow") -> None:
        self._flow = ETLGraph(name=name)
        self._last: Operation | None = None

    # ------------------------------------------------------------------
    # Generic node creation
    # ------------------------------------------------------------------

    def add(
        self,
        kind: OperationKind,
        name: str,
        *,
        schema: Schema | None = None,
        after: Operation | str | Sequence[Operation | str] | None = None,
        op_id: str = "",
        config: dict[str, Any] | None = None,
        properties: OperationProperties | None = None,
        edge_label: str = "",
    ) -> Operation:
        """Add an operation and connect it to its predecessors.

        Parameters
        ----------
        kind, name, schema, op_id, config, properties:
            Forwarded to :class:`~repro.etl.operations.Operation`.
        after:
            Predecessor(s).  ``None`` links to the previously added
            operation (or nothing if this is the first / a new source).
        edge_label:
            Label put on every created incoming edge.
        """
        predecessors = self._resolve_predecessors(after)
        if schema is None:
            if predecessors:
                schema = self._flow.operation(predecessors[0]).output_schema
            else:
                schema = Schema()
        if not op_id:
            op_id = self._identifier_from_name(name)
        operation = Operation(
            kind=kind,
            name=name,
            op_id=op_id,
            output_schema=schema,
            config=dict(config or {}),
            properties=properties or OperationProperties(),
        )
        self._flow.add_operation(operation)
        for pred in predecessors:
            self._flow.add_edge(pred, operation.op_id, label=edge_label)
        self._last = operation
        return operation

    def _identifier_from_name(self, name: str) -> str:
        """Derive a deterministic, unique operation identifier from its name.

        Deterministic identifiers keep builder-produced flows reproducible
        (two identically built flows are structurally equal) and make the
        planner's reports readable.
        """
        base = "".join(ch if ch.isalnum() else "_" for ch in name.strip().lower()) or "op"
        candidate = base
        suffix = 2
        while candidate in self._flow:
            candidate = f"{base}_{suffix}"
            suffix += 1
        return candidate

    def _resolve_predecessors(
        self, after: Operation | str | Sequence[Operation | str] | None
    ) -> list[str]:
        if after is None:
            return [self._last.op_id] if self._last is not None else []
        if isinstance(after, (Operation, str)):
            after = [after]
        resolved: list[str] = []
        for item in after:
            resolved.append(item.op_id if isinstance(item, Operation) else item)
        return resolved

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def extract_table(
        self,
        name: str,
        *,
        schema: Schema,
        rows: int = 1000,
        table: str = "",
        null_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        error_rate: float = 0.0,
        freshness_lag: float = 0.0,
        update_frequency: float = 24.0,
        cost_per_tuple: float = 0.005,
        **extra: Any,
    ) -> Operation:
        """Add a table-extraction source operation."""
        properties = OperationProperties(
            cost_per_tuple=cost_per_tuple,
            null_rate=null_rate,
            duplicate_rate=duplicate_rate,
            error_rate=error_rate,
            freshness_lag=freshness_lag,
            update_frequency=update_frequency,
        )
        config: dict[str, Any] = {"rows": rows, "table": table or name}
        config.update(extra)
        return self.add(
            OperationKind.EXTRACT_TABLE,
            name,
            schema=schema,
            after=[],
            config=config,
            properties=properties,
        )

    def extract_file(
        self,
        name: str,
        *,
        schema: Schema,
        rows: int = 1000,
        path: str = "",
        null_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        error_rate: float = 0.0,
        **extra: Any,
    ) -> Operation:
        """Add a flat-file extraction source operation."""
        properties = OperationProperties(
            cost_per_tuple=0.008,
            null_rate=null_rate,
            duplicate_rate=duplicate_rate,
            error_rate=error_rate,
        )
        config: dict[str, Any] = {"rows": rows, "path": path or f"{name}.csv"}
        config.update(extra)
        return self.add(
            OperationKind.EXTRACT_FILE,
            name,
            schema=schema,
            after=[],
            config=config,
            properties=properties,
        )

    # ------------------------------------------------------------------
    # Row-level transformations
    # ------------------------------------------------------------------

    def filter(
        self,
        name: str,
        *,
        predicate: str,
        selectivity: float = 0.5,
        after: Operation | str | Sequence[Operation | str] | None = None,
        cost_per_tuple: float = 0.005,
    ) -> Operation:
        """Add a row filter with the given predicate text and selectivity."""
        return self.add(
            OperationKind.FILTER,
            name,
            after=after,
            config={"predicate": predicate},
            properties=OperationProperties(
                cost_per_tuple=cost_per_tuple, selectivity=selectivity
            ),
        )

    def project(
        self,
        name: str,
        *,
        keep: Sequence[str],
        after: Operation | str | Sequence[Operation | str] | None = None,
    ) -> Operation:
        """Add a projection keeping only the listed fields."""
        predecessors = self._resolve_predecessors(after)
        if predecessors:
            input_schema = self._flow.operation(predecessors[0]).output_schema
            schema = input_schema.project(list(keep))
        else:
            schema = Schema()
        return self.add(
            OperationKind.PROJECT,
            name,
            schema=schema,
            after=predecessors,
            config={"keep": list(keep)},
            properties=OperationProperties(cost_per_tuple=0.002),
        )

    def derive(
        self,
        name: str,
        *,
        expressions: dict[str, str] | None = None,
        cost_per_tuple: float = 0.02,
        after: Operation | str | Sequence[Operation | str] | None = None,
        schema: Schema | None = None,
    ) -> Operation:
        """Add a derive-values operation (computed columns / enrichment)."""
        return self.add(
            OperationKind.DERIVE,
            name,
            schema=schema,
            after=after,
            config={"expressions": dict(expressions or {})},
            properties=OperationProperties(cost_per_tuple=cost_per_tuple),
        )

    def lookup(
        self,
        name: str,
        *,
        reference: str,
        on: Sequence[str],
        cost_per_tuple: float = 0.015,
        error_rate: float = 0.0,
        after: Operation | str | Sequence[Operation | str] | None = None,
        schema: Schema | None = None,
    ) -> Operation:
        """Add a lookup against a reference table."""
        return self.add(
            OperationKind.LOOKUP,
            name,
            schema=schema,
            after=after,
            config={"reference": reference, "on": list(on)},
            properties=OperationProperties(
                cost_per_tuple=cost_per_tuple, error_rate=error_rate
            ),
        )

    def surrogate_key(
        self,
        name: str,
        *,
        key_field: str,
        after: Operation | str | Sequence[Operation | str] | None = None,
    ) -> Operation:
        """Add a surrogate-key assignment operation."""
        return self.add(
            OperationKind.SURROGATE_KEY,
            name,
            after=after,
            config={"key_field": key_field},
            properties=OperationProperties(cost_per_tuple=0.008),
        )

    def aggregate(
        self,
        name: str,
        *,
        group_by: Sequence[str],
        aggregations: dict[str, str] | None = None,
        selectivity: float = 0.1,
        cost_per_tuple: float = 0.03,
        after: Operation | str | Sequence[Operation | str] | None = None,
        schema: Schema | None = None,
    ) -> Operation:
        """Add a grouping/aggregation (blocking) operation."""
        return self.add(
            OperationKind.AGGREGATE,
            name,
            schema=schema,
            after=after,
            config={"group_by": list(group_by), "aggregations": dict(aggregations or {})},
            properties=OperationProperties(
                cost_per_tuple=cost_per_tuple, selectivity=selectivity, fixed_cost=50.0
            ),
        )

    def sort(
        self,
        name: str,
        *,
        by: Sequence[str],
        after: Operation | str | Sequence[Operation | str] | None = None,
    ) -> Operation:
        """Add a sort (blocking) operation."""
        return self.add(
            OperationKind.SORT,
            name,
            after=after,
            config={"by": list(by)},
            properties=OperationProperties(cost_per_tuple=0.02, fixed_cost=30.0),
        )

    def join(
        self,
        name: str,
        left: Operation | str,
        right: Operation | str,
        *,
        on: Sequence[str],
        selectivity: float = 1.0,
        cost_per_tuple: float = 0.025,
        schema: Schema | None = None,
    ) -> Operation:
        """Add a binary join of two branches."""
        if schema is None:
            left_id = left.op_id if isinstance(left, Operation) else left
            right_id = right.op_id if isinstance(right, Operation) else right
            schema = self._flow.operation(left_id).output_schema.merge(
                self._flow.operation(right_id).output_schema
            )
        return self.add(
            OperationKind.JOIN,
            name,
            schema=schema,
            after=[left, right],
            config={"on": list(on)},
            properties=OperationProperties(
                cost_per_tuple=cost_per_tuple, selectivity=selectivity, fixed_cost=40.0
            ),
        )

    def union(
        self,
        name: str,
        branches: Sequence[Operation | str],
        *,
        schema: Schema | None = None,
    ) -> Operation:
        """Add an n-ary union of branches carrying the same schema."""
        return self.add(
            OperationKind.UNION,
            name,
            schema=schema,
            after=list(branches),
            properties=OperationProperties(cost_per_tuple=0.002),
        )

    def merge(
        self,
        name: str,
        branches: Sequence[Operation | str],
        *,
        schema: Schema | None = None,
    ) -> Operation:
        """Add a merge node recombining previously split branches."""
        return self.add(
            OperationKind.MERGE,
            name,
            schema=schema,
            after=list(branches),
            properties=OperationProperties(cost_per_tuple=0.003),
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def split(
        self,
        name: str,
        *,
        outputs: int = 2,
        after: Operation | str | Sequence[Operation | str] | None = None,
    ) -> Operation:
        """Add a split node routing records to ``outputs`` downstream branches."""
        return self.add(
            OperationKind.SPLIT,
            name,
            after=after,
            config={"outputs": outputs},
            properties=OperationProperties(cost_per_tuple=0.001),
        )

    def partition(
        self,
        name: str,
        *,
        key: str,
        partitions: int = 2,
        after: Operation | str | Sequence[Operation | str] | None = None,
    ) -> Operation:
        """Add a horizontal-partition node (hash partitioning on ``key``)."""
        return self.add(
            OperationKind.PARTITION,
            name,
            after=after,
            config={"key": key, "partitions": partitions},
            properties=OperationProperties(cost_per_tuple=0.002),
        )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load_table(
        self,
        name: str,
        *,
        table: str = "",
        after: Operation | str | Sequence[Operation | str] | None = None,
        cost_per_tuple: float = 0.01,
    ) -> Operation:
        """Add a warehouse-table load sink."""
        return self.add(
            OperationKind.LOAD_TABLE,
            name,
            after=after,
            config={"table": table or name},
            properties=OperationProperties(cost_per_tuple=cost_per_tuple, fixed_cost=20.0),
        )

    def load_file(
        self,
        name: str,
        *,
        path: str = "",
        after: Operation | str | Sequence[Operation | str] | None = None,
    ) -> Operation:
        """Add a flat-file load sink."""
        return self.add(
            OperationKind.LOAD_FILE,
            name,
            after=after,
            config={"path": path or f"{name}.out"},
            properties=OperationProperties(cost_per_tuple=0.012),
        )

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------

    def set_properties(self, operation: Operation | str, **changes: Any) -> Operation:
        """Change runtime properties of an operation already in the flow.

        ``changes`` are :class:`~repro.etl.properties.OperationProperties`
        fields.  Operations are frozen values, so this installs a new
        operation through :meth:`ETLGraph.update_operation` and returns it.
        """
        op_id = operation.op_id if isinstance(operation, Operation) else operation
        properties = replace(self._flow.operation(op_id).properties, **changes)
        return self._flow.update_operation(op_id, properties=properties)

    @property
    def flow(self) -> ETLGraph:
        """The flow under construction (live reference)."""
        return self._flow

    def build(self, validate: bool = True) -> ETLGraph:
        """Return the constructed flow, optionally validating it first."""
        if validate:
            from repro.etl.validation import validate_flow

            validate_flow(self._flow, raise_on_error=True)
        return self._flow
