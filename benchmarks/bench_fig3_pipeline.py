"""FIG3 -- the POIESIS architecture pipeline (Pattern Generation -> Pattern
Application -> Measures Estimation).

Fig. 3 shows the planner taking an initial ETL flow plus configurations
and producing ``ETL Flow 1 ... ETL Flow n``, each with its flow measures.
The benchmark runs each stage separately on the TPC-H flow, prints the
stage outputs (how many patterns were generated, how many alternatives
were produced, and the measures attached to the first few flows) and times
the full pipeline.
"""

import pytest

from repro.core import Planner
from repro.viz.tables import render_table

from conftest import fast_configuration, print_artifact


@pytest.fixture(scope="module")
def planner():
    return Planner(configuration=fast_configuration(pattern_budget=1, max_points_per_pattern=3))


def test_fig3_stage_pattern_generation(benchmark, planner, tpch):
    """Stage 1: generate flow-specific patterns (valid application points)."""
    counts = benchmark(planner.generator.application_point_counts, tpch)
    rows = [{"fcp": name, "valid_application_points": count} for name, count in counts.items()]
    print_artifact("Fig. 3 -- Pattern Generation (points per FCP on tpch_refresh)", render_table(rows))
    assert sum(counts.values()) > 10


def test_fig3_stage_pattern_application(benchmark, planner, tpch):
    """Stage 2: apply patterns in varying positions/combinations -> ETL Flow 1..n."""
    alternatives = benchmark(lambda flow: list(planner.generator.generate_iter(flow)), tpch)
    assert alternatives
    assert alternatives[0].label == "ETL Flow 1"
    print_artifact(
        "Fig. 3 -- Pattern Application",
        f"alternative ETL flows produced: {len(alternatives)}\n"
        + "\n".join(f"  {alt.label}: {alt.describe()}" for alt in alternatives[:5]),
    )


def test_fig3_stage_measures_estimation(benchmark, planner, tpch):
    """Stage 3: estimate flow measures for the alternatives."""
    alternatives = list(planner.generator.generate_iter(tpch))[:8]
    evaluated = benchmark(planner.evaluate_alternatives, alternatives)
    assert all(alt.profile is not None for alt in evaluated)
    rows = []
    for alt in evaluated[:5]:
        rows.append(
            {
                "flow": alt.label,
                "patterns": "+".join(alt.pattern_names),
                **{
                    characteristic.value: f"{alt.profile.score(characteristic):6.1f}"
                    for characteristic in planner.configuration.skyline_characteristics
                },
            }
        )
    print_artifact("Fig. 3 -- Measures Estimation (flow measures per alternative)", render_table(rows))


def test_fig3_full_pipeline(benchmark, planner, tpch):
    """The whole Fig. 3 pipeline: initial flow + configurations -> evaluated alternatives."""
    result = benchmark.pedantic(planner.plan, args=(tpch,), rounds=3, iterations=1)
    assert result.alternatives
    assert result.skyline_indices
    print_artifact(
        "Fig. 3 -- full pipeline summary",
        str(result.summary()),
    )
