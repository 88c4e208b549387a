"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import Planner, ProcessingConfiguration
from repro.etl.builder import FlowBuilder
from repro.etl.graph import ETLGraph
from repro.etl.schema import DataType, Field, Schema
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.quality.framework import MeasureRegistry, default_registry
from repro.simulator.engine import ETLSimulator, SimulationConfig
from repro.workloads import (
    RandomFlowConfig,
    purchases_flow,
    random_flow,
    tpcds_sales_flow,
    tpch_refresh_flow,
)


@pytest.fixture
def simple_schema() -> Schema:
    """A small schema with a key, numeric, temporal and nullable fields."""
    return Schema.of(
        Field("id", DataType.INTEGER, nullable=False, key=True),
        Field("name", DataType.STRING, nullable=True),
        Field("amount", DataType.DECIMAL, nullable=True),
        Field("created_at", DataType.TIMESTAMP, nullable=True),
    )


@pytest.fixture
def linear_flow(simple_schema: Schema) -> ETLGraph:
    """A minimal linear flow: extract -> filter -> derive -> load."""
    builder = FlowBuilder("linear")
    src = builder.extract_table(
        "src", schema=simple_schema, rows=1_000, null_rate=0.1, duplicate_rate=0.05,
        error_rate=0.02, freshness_lag=30.0,
    )
    flt = builder.filter("flt", predicate="amount > 0", selectivity=0.8, after=src)
    der = builder.derive("der", expressions={"total": "amount * 2"}, cost_per_tuple=0.05, after=flt)
    builder.set_properties(der, failure_rate=0.1)
    builder.load_table("load", after=der)
    return builder.build()


@pytest.fixture
def branching_flow(simple_schema: Schema) -> ETLGraph:
    """A flow with two sources, a join, an aggregation branch and two loads."""
    builder = FlowBuilder("branching")
    left = builder.extract_table("left_src", schema=simple_schema, rows=500, null_rate=0.05)
    right = builder.extract_table("right_src", schema=simple_schema, rows=800, error_rate=0.04)
    left_filter = builder.filter("left_filter", predicate="amount > 0", selectivity=0.7, after=left)
    join = builder.join("join", left_filter, right, on=["id"], cost_per_tuple=0.03)
    derive = builder.derive("enrich", expressions={"x": "amount + 1"}, cost_per_tuple=0.04, after=join)
    builder.load_table("load_detail", after=derive)
    agg = builder.aggregate("agg", group_by=["name"], selectivity=0.1, after=derive)
    builder.load_table("load_summary", after=agg)
    return builder.build()


@pytest.fixture
def small_purchases() -> ETLGraph:
    """A scaled-down Fig. 2 purchases flow (fast to simulate)."""
    return purchases_flow(rows_per_source=2_000)


@pytest.fixture(scope="session")
def tpch_flow() -> ETLGraph:
    """A scaled-down TPC-H refresh flow (shared across tests; treat as read-only)."""
    return tpch_refresh_flow(scale=0.05)


def set_properties(flow: ETLGraph, op_id: str, **changes) -> None:
    """Install a copy of operation ``op_id`` whose properties carry ``changes``."""
    flow.update_operation(op_id, properties=replace(flow.operation(op_id).properties, **changes))


def set_config(flow: ETLGraph, op_id: str, **entries) -> None:
    """Install a copy of operation ``op_id`` with ``entries`` merged into its config."""
    flow.update_operation(op_id, config={**flow.operation(op_id).config, **entries})


def static_registry() -> MeasureRegistry:
    """The default registry without its trace-based measures.

    An estimator over it never simulates: the static-only estimator.
    """
    return MeasureRegistry(m for m in default_registry() if not m.requires_trace)


def twelve_cases():
    """The twelve planning cases (four flows at budgets 1-3) as ``(build, budget)`` params.

    The cases whose plan tables are recorded in CHANGES.md; budget 3 is
    marked slow.
    """
    flows = {
        "tpch": tpch_refresh_flow,
        "tpcds": tpcds_sales_flow,
        "purchases": purchases_flow,
        "random16": lambda: random_flow(RandomFlowConfig(operations=16, seed=1, sources=3)),
    }
    for name, build in flows.items():
        for budget in (1, 2, 3):
            marks = [pytest.mark.slow] if budget == 3 else []
            yield pytest.param(build, budget, id=f"{name}-budget{budget}", marks=marks)


def fast_planner_config(**overrides) -> ProcessingConfiguration:
    """A small, fully deterministic planner configuration for quick tests."""
    defaults = dict(
        pattern_budget=1,
        max_points_per_pattern=2,
        simulation_runs=1,
        max_alternatives=200,
        seed=7,
    )
    defaults.update(overrides)
    return ProcessingConfiguration(**defaults)


@pytest.fixture
def make_config():
    """Factory fixture for the shared deterministic planner configuration."""
    return fast_planner_config


@pytest.fixture
def make_planner():
    """Factory fixture for deterministic seeded planners.

    Shared across test modules so that planner-level tests agree on one
    baseline configuration; pass overrides for per-test knobs, e.g.
    ``make_planner(pattern_budget=2, eval_batch_size=4)``.
    """

    def make(**overrides) -> Planner:
        return Planner(configuration=fast_planner_config(**overrides))

    return make


@pytest.fixture
def seeded_planner(make_planner) -> Planner:
    """A deterministic seeded planner with the shared fast configuration."""
    return make_planner()


@pytest.fixture
def fast_estimator() -> QualityEstimator:
    """A quality estimator with a tiny simulation budget, for quick tests."""
    return QualityEstimator(settings=EstimationSettings(simulation_runs=2, seed=3))


@pytest.fixture
def fast_simulator_config() -> SimulationConfig:
    """A simulator configuration with a tiny run count."""
    return SimulationConfig(runs=2, seed=3)


def simulate(flow: ETLGraph, runs: int = 3, seed: int = 5):
    """Helper used by several test modules to get a trace archive quickly."""
    return ETLSimulator(flow, SimulationConfig(runs=runs, seed=seed)).run()
