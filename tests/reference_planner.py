"""A from-scratch reference for :meth:`Planner.plan`.

The planner streams candidates from the incremental generator into a
windowed evaluator, memoizes profiles in a shared cache backend, and
simulates every flow of a plan against one shared memo.  This reference
does none of that: it generates with :func:`reference_generate`,
estimates every flow with a fresh :class:`QualityEstimator` that has no
cache and no shared-simulation scope, filters by the constraints, and
ranks with the all-pairs :func:`reference_pareto_front`.  A disagreement
with the planner points at the streaming, caching or memo machinery, not
at the policy, the measures or the dominance rule.
"""

from __future__ import annotations

from repro.core.alternatives import AlternativeGenerator
from repro.core.configuration import ProcessingConfiguration
from repro.core.planner import PlanningResult
from repro.core.policies import policy_by_name
from repro.etl.graph import ETLGraph
from repro.patterns.registry import PatternRegistry, default_palette
from repro.quality.composite import QualityProfile
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.quality.framework import MeasureRegistry, default_registry
from tests.reference_generator import reference_generate
from tests.reference_skyline import reference_pareto_front


def reference_plan(
    flow: ETLGraph,
    configuration: ProcessingConfiguration,
    palette: PatternRegistry | None = None,
    measures: MeasureRegistry | None = None,
) -> PlanningResult:
    """Plan ``flow`` from scratch, with nothing shared between estimates."""
    generator = AlternativeGenerator(
        palette=palette or default_palette(),
        policy=policy_by_name(
            configuration.policy,
            priorities=dict(configuration.goal_priorities) or None,
            seed=configuration.seed,
        ),
        configuration=configuration,
    )
    settings = EstimationSettings(
        simulation_runs=configuration.simulation_runs, seed=configuration.seed
    )

    def estimate(candidate: ETLGraph) -> QualityProfile:
        return QualityEstimator(registry=measures, settings=settings).evaluate(candidate)

    alternatives, _ = reference_generate(generator, flow)
    kept, discarded = [], 0
    for alternative in alternatives:
        alternative.profile = estimate(alternative.flow)
        if configuration.satisfies_constraints(alternative.profile):
            kept.append(alternative)
        else:
            discarded += 1
    characteristics = tuple(configuration.skyline_characteristics)
    return PlanningResult(
        initial_flow=flow,
        baseline_profile=estimate(flow),
        alternatives=kept,
        skyline_indices=reference_pareto_front(
            [alt.profile.as_vector(characteristics) for alt in kept]
        ),
        characteristics=characteristics,
        discarded_by_constraints=discarded,
    )
