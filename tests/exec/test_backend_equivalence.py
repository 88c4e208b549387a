"""Operator conformance of the local execution backend.

For every supported operator kind this module builds a seeded
micro-flow and executes it on :class:`~repro.exec.LocalBackend`, the
reference semantics every future native backend must reproduce: each
micro-flow must execute and load rows at all.
"""

from __future__ import annotations

import pytest

from repro.etl.builder import FlowBuilder
from repro.etl.operations import OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.exec import FlowExecutor


def _schema() -> Schema:
    return Schema.of(
        Field("id", DataType.INTEGER, nullable=False, key=True),
        Field("value", DataType.INTEGER, nullable=True),
        Field("label", DataType.STRING, nullable=True),
    )


def _source(builder: FlowBuilder, name: str = "src", rows: int = 120):
    """A dirty seeded source: nulls, duplicates and error-marked cells."""
    return builder.extract_table(
        name,
        schema=_schema(),
        rows=rows,
        null_rate=0.1,
        duplicate_rate=0.08,
        error_rate=0.05,
    )


def _unary(kind: OperationKind, config: dict):
    def build() -> object:
        builder = FlowBuilder(f"eq_{kind.value}")
        src = _source(builder)
        op = builder.add(kind, kind.value, config=config, after=src)
        builder.load_table("sink", after=op)
        return builder.build()

    return build


def _binary(kind: OperationKind, config: dict):
    def build() -> object:
        builder = FlowBuilder(f"eq_{kind.value}")
        left = _source(builder, "left_src", rows=90)
        right = _source(builder, "right_src", rows=70)
        op = builder.add(kind, kind.value, config=config, after=[left, right])
        builder.load_table("sink", after=op)
        return builder.build()

    return build


def _router(kind: OperationKind, config: dict):
    def build() -> object:
        builder = FlowBuilder(f"eq_{kind.value}")
        src = _source(builder)
        op = builder.add(kind, kind.value, config=config, after=src)
        builder.load_table("sink_a", after=op)
        builder.load_table("sink_b", after=op)
        return builder.build()

    return build


def _lookup_flow() -> object:
    builder = FlowBuilder("eq_lookup")
    src = _source(builder, "facts", rows=90)
    reference = builder.extract_table(
        "dim_labels",
        schema=Schema.of(
            Field("value", DataType.INTEGER, nullable=False, key=True),
            Field("category", DataType.STRING, nullable=True),
        ),
        rows=40,
    )
    lookup = builder.lookup(
        "enrich", reference="dim_labels", on=["value"], after=[src, reference]
    )
    builder.load_table("sink", after=lookup)
    return builder.build()


def _checkpoint_flow() -> object:
    builder = FlowBuilder("eq_checkpoint")
    src = _source(builder)
    checkpoint = builder.add(
        OperationKind.CHECKPOINT, "persist", config={"savepoint": "eq_sp"}, after=src
    )
    builder.load_table("sink", after=checkpoint)
    return builder.build()


#: Operator kind -> zero-argument micro-flow factory.  Together these
#: cover every executable operator of the backend dispatch table (PIVOT
#: is deliberately unsupported and covered by the compiler tests).
OPERATOR_FLOWS = {
    "filter": _unary(OperationKind.FILTER, {"predicate": "value > 8"}),
    "filter_null_compare": _unary(OperationKind.FILTER, {"predicate": "label != null"}),
    "project": _unary(OperationKind.PROJECT, {"keep": ["id", "value"]}),
    "derive": _unary(
        OperationKind.DERIVE,
        {"expressions": {"total": "value * 2 + 1", "big": "value > 10"}},
    ),
    "rename": _unary(OperationKind.RENAME, {"renames": {"value": "amount"}}),
    "convert": _unary(OperationKind.CONVERT, {"conversions": {"value": "decimal(12,2)"}}),
    "surrogate_key": _unary(OperationKind.SURROGATE_KEY, {"key_field": "sk"}),
    "slowly_changing_dim": _unary(OperationKind.SLOWLY_CHANGING_DIM, {}),
    "aggregate": _unary(
        OperationKind.AGGREGATE,
        {"group_by": ["label"], "aggregations": {"value": "sum", "id": "count"}},
    ),
    "aggregate_default": _unary(OperationKind.AGGREGATE, {"group_by": ["label"]}),
    "sort": _unary(OperationKind.SORT, {"by": ["value", "id"]}),
    "deduplicate": _unary(OperationKind.DEDUPLICATE, {"keys": ["id"]}),
    "filter_nulls": _unary(OperationKind.FILTER_NULLS, {}),
    "crosscheck": _unary(OperationKind.CROSSCHECK, {}),
    "validate": _unary(OperationKind.VALIDATE, {}),
    "cleanse": _unary(OperationKind.CLEANSE, {}),
    "join": _binary(OperationKind.JOIN, {"on": ["id"]}),
    "union": _binary(OperationKind.UNION, {}),
    "merge": _binary(OperationKind.MERGE, {}),
    "diff": _binary(OperationKind.DIFF, {}),
    "lookup": _lookup_flow,
    "split": _router(OperationKind.SPLIT, {"outputs": 2}),
    "router": _router(OperationKind.ROUTER, {"outputs": 2}),
    "partition": _router(OperationKind.PARTITION, {"key": "id", "partitions": 2}),
    "replicate": _router(OperationKind.REPLICATE, {}),
    "checkpoint": _checkpoint_flow,
    "passthrough": _unary(OperationKind.ENCRYPT, {}),
}


def _outputs(flow) -> dict[str, dict[str, list]]:
    return FlowExecutor(data_seed=13).execute(flow).outputs


@pytest.mark.parametrize("operator", sorted(OPERATOR_FLOWS))
def test_operator_executes_on_local(operator: str):
    """Each micro-flow must execute and load rows on the reference backend."""
    outputs = _outputs(OPERATOR_FLOWS[operator]())
    assert outputs, f"{operator}: no sink output captured"
    total = sum(
        max((len(v) for v in columns.values()), default=0)
        for columns in outputs.values()
    )
    assert total > 0, f"{operator}: sinks received no rows"
