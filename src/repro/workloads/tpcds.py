"""A TPC-DS-based ETL process.

The second demo workload of the paper derives from the TPC-DS benchmark.
This module re-creates a retail sales ETL process over a subset of the
TPC-DS schema: store sales and web sales are extracted together with the
item, customer, store and date dimensions; the two sales channels are
cleansed, conformed to a common schema, enriched with dimension lookups
and slowly-changing-dimension handling, unioned, and loaded into a sales
fact table plus an aggregated channel summary.
"""

from __future__ import annotations

from repro.etl.builder import FlowBuilder
from repro.etl.graph import ETLGraph
from repro.etl.operations import OperationKind
from repro.etl.properties import OperationProperties
from repro.etl.schema import DataType, Field, Schema


def tpcds_schemas() -> dict[str, Schema]:
    """Schemas of the TPC-DS subset used by the sales flow."""
    sales_fields = [
        Field("sold_date_sk", DataType.INTEGER),
        Field("customer_sk", DataType.INTEGER),
        Field("store_sk", DataType.INTEGER),
        Field("quantity", DataType.INTEGER),
        Field("wholesale_cost", DataType.DECIMAL),
        Field("list_price", DataType.DECIMAL),
        Field("sales_price", DataType.DECIMAL),
        Field("ext_discount_amt", DataType.DECIMAL),
        Field("net_paid", DataType.DECIMAL),
        Field("net_profit", DataType.DECIMAL),
    ]
    return {
        "store_sales": Schema.of(
            Field("ss_ticket_number", DataType.INTEGER, nullable=False, key=True),
            Field("ss_item_sk", DataType.INTEGER, nullable=False, key=True),
            *[f.renamed("ss_" + f.name) for f in sales_fields],
        ),
        "web_sales": Schema.of(
            Field("ws_order_number", DataType.INTEGER, nullable=False, key=True),
            Field("ws_item_sk", DataType.INTEGER, nullable=False, key=True),
            *[f.renamed("ws_" + f.name) for f in sales_fields],
        ),
        "item": Schema.of(
            Field("i_item_sk", DataType.INTEGER, nullable=False, key=True),
            Field("i_item_id", DataType.STRING, nullable=False),
            Field("i_item_desc", DataType.STRING),
            Field("i_brand", DataType.STRING),
            Field("i_category", DataType.STRING),
            Field("i_current_price", DataType.DECIMAL),
            Field("i_rec_start_date", DataType.DATE),
            Field("i_rec_end_date", DataType.DATE),
        ),
        "customer": Schema.of(
            Field("c_customer_sk", DataType.INTEGER, nullable=False, key=True),
            Field("c_customer_id", DataType.STRING, nullable=False),
            Field("c_first_name", DataType.STRING),
            Field("c_last_name", DataType.STRING),
            Field("c_birth_country", DataType.STRING),
            Field("c_email_address", DataType.STRING),
        ),
        "store": Schema.of(
            Field("s_store_sk", DataType.INTEGER, nullable=False, key=True),
            Field("s_store_id", DataType.STRING, nullable=False),
            Field("s_store_name", DataType.STRING),
            Field("s_market_id", DataType.INTEGER),
            Field("s_state", DataType.STRING),
            Field("s_rec_start_date", DataType.DATE),
            Field("s_rec_end_date", DataType.DATE),
        ),
        "date_dim": Schema.of(
            Field("d_date_sk", DataType.INTEGER, nullable=False, key=True),
            Field("d_date", DataType.DATE, nullable=False),
            Field("d_year", DataType.INTEGER),
            Field("d_moy", DataType.INTEGER),
            Field("d_quarter_name", DataType.STRING),
        ),
    }


def tpcds_sales_flow(scale: float = 1.0) -> ETLGraph:
    """Build the TPC-DS sales ETL flow (about 35 operators, 6 sources)."""
    schemas = tpcds_schemas()
    builder = FlowBuilder("tpcds_sales")

    def rows(base: int) -> int:
        return max(1, int(base * scale))

    # --- extraction -----------------------------------------------------
    store_sales = builder.extract_table(
        "extract_store_sales", schema=schemas["store_sales"], rows=rows(50_000),
        null_rate=0.05, duplicate_rate=0.02, error_rate=0.03,
        freshness_lag=30.0, update_frequency=96.0,
    )
    web_sales = builder.extract_table(
        "extract_web_sales", schema=schemas["web_sales"], rows=rows(25_000),
        null_rate=0.07, duplicate_rate=0.03, error_rate=0.04,
        freshness_lag=15.0, update_frequency=96.0,
    )
    item = builder.extract_table(
        "extract_item", schema=schemas["item"], rows=rows(18_000),
        null_rate=0.02, error_rate=0.01, freshness_lag=720.0, update_frequency=1.0,
    )
    customer = builder.extract_table(
        "extract_customer", schema=schemas["customer"], rows=rows(100_000),
        null_rate=0.04, duplicate_rate=0.02, error_rate=0.02,
        freshness_lag=360.0, update_frequency=2.0,
    )
    store = builder.extract_table(
        "extract_store", schema=schemas["store"], rows=rows(1_000),
        null_rate=0.01, freshness_lag=1440.0, update_frequency=1.0,
    )
    date_dim = builder.extract_file(
        "extract_date_dim", schema=schemas["date_dim"], rows=rows(73_000),
        path="date_dim.dat",
    )

    # --- dimension processing ---------------------------------------------
    item_scd = builder.add(
        OperationKind.SLOWLY_CHANGING_DIM, "scd_item", after=item,
        config={"keys": ["i_item_id"], "type": 2},
        properties=OperationProperties(cost_per_tuple=0.02),
    )
    builder.load_table("load_dim_item", table="dim_item", after=item_scd)

    customer_cleanse = builder.add(
        OperationKind.CLEANSE, "standardise_customer_names", after=customer,
        config={"rules": ["trim", "title_case", "email_lowercase"]},
        properties=OperationProperties(cost_per_tuple=0.015, selectivity=1.0),
    )
    customer_sk = builder.surrogate_key(
        "assign_customer_sk", key_field="customer_dim_sk", after=customer_cleanse,
    )
    builder.load_table("load_dim_customer", table="dim_customer", after=customer_sk)

    store_scd = builder.add(
        OperationKind.SLOWLY_CHANGING_DIM, "scd_store", after=store,
        config={"keys": ["s_store_id"], "type": 2},
    )
    builder.load_table("load_dim_store", table="dim_store", after=store_scd)

    date_filter = builder.filter(
        "filter_current_dates", predicate="d_year >= 2023", selectivity=0.1, after=date_dim,
    )
    builder.load_table("load_dim_date", table="dim_date", after=date_filter)

    # --- store sales channel ------------------------------------------------
    ss_validate = builder.add(
        OperationKind.VALIDATE, "validate_store_sales", after=store_sales,
        config={"checks": ["quantity > 0", "sales_price >= 0"]},
        properties=OperationProperties(selectivity=0.98, cost_per_tuple=0.01),
    )
    ss_conform = builder.add(
        OperationKind.RENAME, "conform_store_sales", after=ss_validate,
        config={"prefix_strip": "ss_", "channel": "store"},
    )
    ss_derive = builder.derive(
        "derive_store_sales_measures",
        expressions={
            "gross_margin": "ss_net_profit / nullif(ss_net_paid, 0)",
            "discount_pct": "ss_ext_discount_amt / nullif(ss_list_price * ss_quantity, 0)",
        },
        cost_per_tuple=0.04, after=ss_conform,
    )
    builder.set_properties(ss_derive, failure_rate=0.04)

    # --- web sales channel -----------------------------------------------
    ws_validate = builder.add(
        OperationKind.VALIDATE, "validate_web_sales", after=web_sales,
        config={"checks": ["quantity > 0", "sales_price >= 0"]},
        properties=OperationProperties(selectivity=0.97, cost_per_tuple=0.01),
    )
    ws_conform = builder.add(
        OperationKind.RENAME, "conform_web_sales", after=ws_validate,
        config={"prefix_strip": "ws_", "channel": "web"},
    )
    ws_derive = builder.derive(
        "derive_web_sales_measures",
        expressions={
            "gross_margin": "ws_net_profit / nullif(ws_net_paid, 0)",
            "discount_pct": "ws_ext_discount_amt / nullif(ws_list_price * ws_quantity, 0)",
        },
        cost_per_tuple=0.04, after=ws_conform,
    )
    builder.set_properties(ws_derive, failure_rate=0.04)

    # --- conformed fact pipeline --------------------------------------------
    sales_union = builder.union(
        "union_sales_channels", [ss_derive, ws_derive],
        schema=ss_derive.output_schema,
    )
    date_lookup = builder.lookup(
        "lookup_date_dimension", reference="dim_date", on=["sold_date_sk"],
        after=[sales_union, date_filter], error_rate=0.01,
    )
    item_lookup = builder.lookup(
        "lookup_item_dimension", reference="dim_item", on=["item_sk"],
        after=[date_lookup, item_scd], error_rate=0.01,
    )
    customer_lookup = builder.lookup(
        "lookup_customer_dimension", reference="dim_customer", on=["customer_sk"],
        after=[item_lookup, customer_sk], error_rate=0.02,
    )
    store_lookup = builder.lookup(
        "lookup_store_dimension", reference="dim_store", on=["store_sk"],
        after=[customer_lookup, store_scd], error_rate=0.01,
    )
    fact_sk = builder.surrogate_key("assign_sales_sk", key_field="sales_sk", after=store_lookup)
    builder.load_table("load_fact_sales", table="fact_sales", after=fact_sk)

    # --- aggregated channel summary ------------------------------------------
    channel_sort = builder.sort("sort_by_channel_date", by=["channel", "d_date"], after=store_lookup)
    channel_agg = builder.aggregate(
        "aggregate_sales_by_channel",
        group_by=["channel", "d_year", "d_moy"],
        aggregations={"net_paid": "sum", "net_profit": "sum", "quantity": "sum"},
        selectivity=0.02, cost_per_tuple=0.05, after=channel_sort,
    )
    builder.set_properties(channel_agg, failure_rate=0.04)
    builder.load_table("load_summary_channel", table="summary_sales_channel", after=channel_agg)

    return builder.build()
