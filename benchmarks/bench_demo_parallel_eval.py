"""DEMO2 -- concurrent evaluation of many alternative flows.

Section 3: "the processing and analysis of the alternative process designs
is a process intensive task, mainly due to the large number of alternative
flows that have to be concurrently evaluated. Therefore, we employ Amazon
Cloud elastic infrastructures, by launching processing nodes that run in
the background and enable system responsiveness."  The reproduction
substitutes a local process pool; this benchmark compares sequential and
pooled measure estimation over a batch of alternatives and reports the
throughput of each worker count.
"""

import pytest

from repro.core import Planner
from repro.core.evaluator import ParallelEvaluator
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.viz.tables import render_table

from conftest import fast_configuration, print_artifact


@pytest.fixture(scope="module")
def batch(tpch):
    """A batch of unevaluated alternatives from the TPC-H flow."""
    planner = Planner(configuration=fast_configuration(pattern_budget=2, max_points_per_pattern=2))
    alternatives = list(planner.generator.generate_iter(tpch))
    assert len(alternatives) >= 60
    return alternatives[:60]


def _estimator() -> QualityEstimator:
    return QualityEstimator(settings=EstimationSettings(simulation_runs=1, seed=7))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_demo2_evaluation_throughput(benchmark, batch, workers):
    """Throughput of measure estimation: sequential, 2 and 4 processes."""
    evaluator = ParallelEvaluator(estimator=_estimator(), workers=workers)

    def evaluate():
        # fresh copies so that the profile assignment does not short-circuit work
        return evaluator.evaluate([type(alt)(flow=alt.flow) for alt in batch])

    evaluated = benchmark.pedantic(evaluate, rounds=2, iterations=1)
    assert all(alt.profile is not None for alt in evaluated)


def test_demo2_parallel_results_match_sequential(benchmark, batch):
    """Concurrent evaluation must not change the estimated measures."""
    sequential = ParallelEvaluator(estimator=_estimator(), workers=1).evaluate(
        [type(alt)(flow=alt.flow) for alt in batch[:20]]
    )
    parallel = ParallelEvaluator(estimator=_estimator(), workers=4).evaluate(
        [type(alt)(flow=alt.flow) for alt in batch[:20]]
    )

    def compare():
        mismatches = 0
        for s, p in zip(sequential, parallel):
            if s.profile.scores != p.profile.scores:
                mismatches += 1
        return mismatches

    assert benchmark(compare) == 0

    rows = [
        {
            "flow": s.flow.name[:48],
            "performance": f"{list(s.profile.scores.values())[0]:.2f}",
        }
        for s in sequential[:5]
    ]
    print_artifact("DEMO2 -- identical estimates from sequential and parallel evaluation", render_table(rows))
