"""DEMO1 -- "thousands of alternative ETL flows" from flows with tens of operators.

Section 4 of the paper claims that the automatic addition of FCPs in
different positions and combinations on the TPC-DS / TPC-H flows results
in thousands of alternative ETL flows.  This benchmark measures the size
of the alternative space and the generation rate as a function of the
flow size and the pattern budget, and checks that the claim holds for the
paper-scale flows (tens of operators) with a pattern budget of two.
"""

import pytest

from repro.core.alternatives import AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.policies import ExhaustivePolicy
from repro.patterns.registry import default_palette
from repro.viz.tables import render_table
from repro.workloads import RandomFlowConfig, random_flow

from conftest import print_artifact


def _generator(budget: int, points_per_pattern: int, cap: int = 100_000) -> AlternativeGenerator:
    config = ProcessingConfiguration(
        pattern_budget=budget,
        max_points_per_pattern=points_per_pattern,
        max_alternatives=cap,
    )
    return AlternativeGenerator(
        default_palette(include_graph_level=False), ExhaustivePolicy(), config
    )


def test_demo1_valid_application_points_grow_with_flow_size(benchmark):
    """The raw problem space (valid points per FCP) grows with the flow size."""
    sizes = [10, 20, 40, 60]
    rows = []
    totals = []
    for size in sizes:
        flow = random_flow(RandomFlowConfig(operations=size, sources=3, seed=101))
        counts = _generator(1, 1000).application_point_counts(flow)
        total = sum(counts.values())
        totals.append(total)
        rows.append({"flow_operations": flow.node_count, "valid_application_points": total})
    print_artifact("DEMO1 -- valid application points vs flow size", render_table(rows))
    assert totals == sorted(totals), "the problem space must grow with the flow size"

    flow = random_flow(RandomFlowConfig(operations=40, sources=3, seed=101))
    benchmark(_generator(1, 1000).application_point_counts, flow)


def test_demo1_thousands_of_alternatives_from_tpch(benchmark, tpch):
    """Budget 2 on the TPC-H flow (tens of operators) yields thousands of flows."""
    generator = _generator(budget=2, points_per_pattern=12)
    alternatives = benchmark.pedantic(generator.generate, args=(tpch,), rounds=1, iterations=1)
    print_artifact(
        "DEMO1 -- alternative flows from tpch_refresh "
        f"({tpch.node_count} operators, budget 2)",
        f"alternatives generated: {len(alternatives)}",
    )
    assert len(alternatives) > 1_000


def test_demo1_thousands_of_alternatives_from_tpcds(benchmark, tpcds):
    """The same holds for the TPC-DS flow."""
    generator = _generator(budget=2, points_per_pattern=12)
    alternatives = benchmark.pedantic(generator.generate, args=(tpcds,), rounds=1, iterations=1)
    print_artifact(
        "DEMO1 -- alternative flows from tpcds_sales "
        f"({tpcds.node_count} operators, budget 2)",
        f"alternatives generated: {len(alternatives)}",
    )
    assert len(alternatives) > 1_000


def test_demo1_space_grows_with_budget(benchmark, tpch):
    """The combinatorial budget sweep: budget 1 vs 2 (vs 3, capped)."""
    rows = []
    counts = {}
    for budget in (1, 2):
        generator = _generator(budget=budget, points_per_pattern=6, cap=50_000)
        alternatives = list(generator.generate_iter(tpch))
        counts[budget] = len(alternatives)
        rows.append({"pattern_budget": budget, "alternative_flows": len(alternatives)})
    capped = list(_generator(budget=3, points_per_pattern=6, cap=5_000).generate_iter(tpch))
    rows.append({"pattern_budget": "3 (capped at 5000)", "alternative_flows": len(capped)})
    print_artifact("DEMO1 -- alternative-space size vs pattern budget (tpch_refresh)", render_table(rows))
    assert counts[2] > 10 * counts[1]
    # budget 3 keeps growing the space (up to the configured cap)
    assert counts[2] < len(capped) <= 5_000

    generator = _generator(budget=1, points_per_pattern=6)
    benchmark(generator.generate, tpch)
