"""The ``S_Purchases`` flow of Fig. 2.

Fig. 2 of the paper illustrates pattern generation on a purchases sub-flow
that extracts from the ``S_Purchases_3`` and ``S_Purchases_4`` sources,
filters on line-item / record-end-date predicates, splits the required
attributes, derives values (the computation-intensive task the performance
patterns target) and merges the results.  This module rebuilds that flow
with a cost model that makes the ``DERIVE VALUES`` step dominate the cycle
time, so that the Fig. 2 bench can show the same trade-offs the figure
illustrates (parallelism/partitioning lowers cycle time; a checkpoint after
the derive improves reliability at a small performance cost).
"""

from __future__ import annotations

from repro.etl.builder import FlowBuilder
from repro.etl.graph import ETLGraph
from repro.etl.schema import DataType, Field, Schema


def purchases_schema() -> Schema:
    """Schema of the purchase line items extracted from the sources."""
    return Schema.of(
        Field("purchase_id", DataType.INTEGER, nullable=False, key=True),
        Field("purchase_line_item_id", DataType.INTEGER, nullable=False, key=True),
        Field("item_id", DataType.INTEGER, nullable=True),
        Field("store_id", DataType.INTEGER, nullable=True),
        Field("quantity", DataType.INTEGER, nullable=True),
        Field("unit_price", DataType.DECIMAL, nullable=True),
        Field("purchase_date", DataType.DATE, nullable=True),
        Field("item_record_end_date", DataType.DATE, nullable=True),
        Field("store_record_end_date", DataType.DATE, nullable=True),
    )


def purchases_flow(
    rows_per_source: int = 20_000,
    derive_cost_per_tuple: float = 0.08,
    failure_rate: float = 0.08,
) -> ETLGraph:
    """Build the Fig. 2 ``S_Purchases`` flow.

    Parameters
    ----------
    rows_per_source:
        Rows extracted from each of the two purchase sources.
    derive_cost_per_tuple:
        Per-tuple cost of the ``DERIVE VALUES`` task; large enough that the
        task dominates the flow's cycle time (the paper calls it the
        computational-intensive task).
    failure_rate:
        Failure probability of the derive task per execution, giving the
        reliability pattern something to protect against.
    """
    schema = purchases_schema()
    builder = FlowBuilder("s_purchases")

    src3 = builder.extract_table(
        "S_Purchases_3",
        schema=schema,
        rows=rows_per_source,
        null_rate=0.06,
        duplicate_rate=0.02,
        error_rate=0.03,
        freshness_lag=45.0,
        update_frequency=24.0,
    )
    src4 = builder.extract_table(
        "S_Purchases_4",
        schema=schema,
        rows=rows_per_source,
        null_rate=0.04,
        duplicate_rate=0.03,
        error_rate=0.02,
        freshness_lag=30.0,
        update_frequency=24.0,
    )
    union = builder.union("union_purchases", [src3, src4], schema=schema)
    flt = builder.filter(
        "filter_current_records",
        predicate=(
            "purchase_line_item_id = item_id AND item_record_end_date = null "
            "AND store_record_end_date = null"
        ),
        selectivity=0.7,
        after=union,
    )
    split = builder.project(
        "split_required_attributes",
        keep=[
            "purchase_id",
            "purchase_line_item_id",
            "item_id",
            "store_id",
            "quantity",
            "unit_price",
            "purchase_date",
        ],
        after=flt,
    )
    derive = builder.derive(
        "derive_values",
        expressions={
            "extended_price": "quantity * unit_price",
            "discounted_price": "extended_price * (1 - discount(item_id))",
            "margin": "discounted_price - cost(item_id) * quantity",
        },
        cost_per_tuple=derive_cost_per_tuple,
        after=split,
    )
    builder.set_properties(derive, failure_rate=failure_rate)
    builder.load_table("load_purchases_fact", table="fact_purchases", after=derive)
    return builder.build()
