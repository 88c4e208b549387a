"""A TPC-H-based ETL process.

The paper's demo loads an ETL process derived from the TPC-H benchmark,
containing tens of operators and extracting data from multiple sources.
This module re-creates such a process at laptop scale: it refreshes an
order/line-item data mart from the TPC-H source tables (customer, orders,
lineitem, part, supplier, nation/region), performing the usual warehouse
steps -- extraction, filtering of the refresh window, surrogate-key
assignment, dimension lookups, derivation of revenue metrics, aggregation
into a summary table and fact/summary loads.
"""

from __future__ import annotations

from repro.etl.builder import FlowBuilder
from repro.etl.graph import ETLGraph
from repro.etl.operations import OperationKind
from repro.etl.schema import DataType, Field, Schema


def tpch_schemas() -> dict[str, Schema]:
    """Schemas of the TPC-H source tables used by the refresh flow."""
    return {
        "customer": Schema.of(
            Field("c_custkey", DataType.INTEGER, nullable=False, key=True),
            Field("c_name", DataType.STRING),
            Field("c_nationkey", DataType.INTEGER),
            Field("c_acctbal", DataType.DECIMAL),
            Field("c_mktsegment", DataType.STRING),
        ),
        "orders": Schema.of(
            Field("o_orderkey", DataType.INTEGER, nullable=False, key=True),
            Field("o_custkey", DataType.INTEGER),
            Field("o_orderstatus", DataType.STRING),
            Field("o_totalprice", DataType.DECIMAL),
            Field("o_orderdate", DataType.DATE),
            Field("o_orderpriority", DataType.STRING),
        ),
        "lineitem": Schema.of(
            Field("l_orderkey", DataType.INTEGER, nullable=False, key=True),
            Field("l_linenumber", DataType.INTEGER, nullable=False, key=True),
            Field("l_partkey", DataType.INTEGER),
            Field("l_suppkey", DataType.INTEGER),
            Field("l_quantity", DataType.DECIMAL),
            Field("l_extendedprice", DataType.DECIMAL),
            Field("l_discount", DataType.DECIMAL),
            Field("l_tax", DataType.DECIMAL),
            Field("l_shipdate", DataType.DATE),
            Field("l_returnflag", DataType.STRING),
        ),
        "part": Schema.of(
            Field("p_partkey", DataType.INTEGER, nullable=False, key=True),
            Field("p_name", DataType.STRING),
            Field("p_brand", DataType.STRING),
            Field("p_type", DataType.STRING),
            Field("p_retailprice", DataType.DECIMAL),
        ),
        "supplier": Schema.of(
            Field("s_suppkey", DataType.INTEGER, nullable=False, key=True),
            Field("s_name", DataType.STRING),
            Field("s_nationkey", DataType.INTEGER),
            Field("s_acctbal", DataType.DECIMAL),
        ),
        "nation": Schema.of(
            Field("n_nationkey", DataType.INTEGER, nullable=False, key=True),
            Field("n_name", DataType.STRING),
            Field("n_regionkey", DataType.INTEGER),
        ),
    }


def tpch_refresh_flow(scale: float = 1.0) -> ETLGraph:
    """Build the TPC-H refresh ETL flow (about 30 operators, 6 sources).

    Parameters
    ----------
    scale:
        Multiplier on the row counts of the refresh extracts; ``1.0``
        yields a laptop-scale workload (tens of thousands of rows).
    """
    schemas = tpch_schemas()
    builder = FlowBuilder("tpch_refresh")

    def rows(base: int) -> int:
        return max(1, int(base * scale))

    # --- extraction -----------------------------------------------------
    customer = builder.extract_table(
        "extract_customer", schema=schemas["customer"], rows=rows(15_000),
        null_rate=0.02, duplicate_rate=0.01, error_rate=0.01,
        freshness_lag=120.0, update_frequency=24.0,
    )
    orders = builder.extract_table(
        "extract_orders", schema=schemas["orders"], rows=rows(30_000),
        null_rate=0.03, duplicate_rate=0.01, error_rate=0.02,
        freshness_lag=60.0, update_frequency=48.0,
    )
    lineitem = builder.extract_table(
        "extract_lineitem", schema=schemas["lineitem"], rows=rows(60_000),
        null_rate=0.04, duplicate_rate=0.02, error_rate=0.02,
        freshness_lag=60.0, update_frequency=48.0,
    )
    part = builder.extract_table(
        "extract_part", schema=schemas["part"], rows=rows(10_000),
        null_rate=0.01, error_rate=0.01, freshness_lag=240.0, update_frequency=4.0,
    )
    supplier = builder.extract_table(
        "extract_supplier", schema=schemas["supplier"], rows=rows(2_000),
        null_rate=0.01, error_rate=0.01, freshness_lag=240.0, update_frequency=4.0,
    )
    nation = builder.extract_file(
        "extract_nation", schema=schemas["nation"], rows=25, path="nation.tbl",
    )

    # --- customer dimension ----------------------------------------------
    cust_filter = builder.filter(
        "filter_active_customers", predicate="c_acctbal >= 0",
        selectivity=0.95, after=customer,
    )
    cust_nation = builder.lookup(
        "lookup_customer_nation", reference="nation", on=["c_nationkey"],
        after=[cust_filter, nation],
        schema=schemas["customer"].merge(schemas["nation"]),
    )
    cust_sk = builder.surrogate_key(
        "assign_customer_sk", key_field="customer_sk", after=cust_nation,
    )
    builder.load_table("load_dim_customer", table="dim_customer", after=cust_sk)

    # --- part / supplier dimensions --------------------------------------
    part_convert = builder.add(
        OperationKind.CONVERT,
        "convert_part_types", after=part,
        config={"conversions": {"p_retailprice": "decimal(12,2)"}},
    )
    part_sk = builder.surrogate_key("assign_part_sk", key_field="part_sk", after=part_convert)
    builder.load_table("load_dim_part", table="dim_part", after=part_sk)

    supp_nation = builder.lookup(
        "lookup_supplier_nation", reference="nation", on=["s_nationkey"],
        after=[supplier, nation],
        schema=schemas["supplier"].merge(schemas["nation"]),
    )
    supp_sk = builder.surrogate_key("assign_supplier_sk", key_field="supplier_sk", after=supp_nation)
    builder.load_table("load_dim_supplier", table="dim_supplier", after=supp_sk)

    # --- order / lineitem fact pipeline -----------------------------------
    orders_window = builder.filter(
        "filter_refresh_window", predicate="o_orderdate >= :window_start",
        selectivity=0.35, after=orders,
    )
    lineitem_window = builder.filter(
        "filter_shipped_lineitems", predicate="l_shipdate >= :window_start",
        selectivity=0.4, after=lineitem,
    )
    order_line_join = builder.join(
        "join_orders_lineitems", orders_window, lineitem_window,
        on=["o_orderkey", "l_orderkey"], selectivity=1.2, cost_per_tuple=0.03,
    )
    cust_join = builder.join(
        "join_customer", order_line_join, cust_sk,
        on=["o_custkey", "c_custkey"], selectivity=1.0, cost_per_tuple=0.02,
    )
    derive_revenue = builder.derive(
        "derive_revenue_measures",
        expressions={
            "revenue": "l_extendedprice * (1 - l_discount)",
            "charge": "l_extendedprice * (1 - l_discount) * (1 + l_tax)",
            "margin": "revenue - p_retailprice * l_quantity",
        },
        cost_per_tuple=0.05, after=cust_join,
    )
    builder.set_properties(derive_revenue, failure_rate=0.05)
    part_lookup = builder.lookup(
        "lookup_part_dimension", reference="dim_part", on=["l_partkey"],
        after=[derive_revenue, part_sk], error_rate=0.01,
    )
    supp_lookup = builder.lookup(
        "lookup_supplier_dimension", reference="dim_supplier", on=["l_suppkey"],
        after=[part_lookup, supp_sk], error_rate=0.01,
    )
    fact_sk = builder.surrogate_key("assign_fact_sk", key_field="sales_sk", after=supp_lookup)
    builder.load_table("load_fact_sales", table="fact_sales", after=fact_sk)

    # --- aggregate summary branch ------------------------------------------
    sort_for_agg = builder.sort("sort_by_nation_date", by=["n_name", "o_orderdate"], after=supp_lookup)
    aggregate = builder.aggregate(
        "aggregate_revenue_by_nation",
        group_by=["n_name", "o_orderdate"],
        aggregations={"revenue": "sum", "charge": "sum", "l_quantity": "sum"},
        selectivity=0.05, cost_per_tuple=0.04, after=sort_for_agg,
    )
    builder.set_properties(aggregate, failure_rate=0.03)
    builder.load_table("load_summary_revenue", table="summary_revenue_nation", after=aggregate)

    return builder.build()
