"""A from-scratch reference for :meth:`AlternativeGenerator.generate_iter`.

The generator applies combinations as chained deltas on forks of the
initial flow, reuses the shared prefix of consecutive combinations and
validates each step incrementally.  This reference does none of that:
every combination is replayed on a flow rebuilt from scratch with
``ETLGraph.from_dict(flow.to_dict())`` -- which shares no object with the
initial flow or with the generator -- every result is validated in full
with :func:`validate_flow`, and duplicates are pruned by
:meth:`ETLGraph.signature`.  It borrows only the generator's
``candidate_deployments`` (the policy); the redundancy screen and the
point re-check are its own from-scratch copies (:func:`is_reasonable`,
:func:`refresh_point`), so a disagreement between the two points at the
incremental machinery, not at the policy.
"""

from __future__ import annotations

import itertools

from repro.core.alternatives import AlternativeFlow, AlternativeGenerator
from repro.etl.graph import ETLGraph
from repro.etl.validation import has_errors, validate_flow
from repro.patterns.base import ApplicationPoint, ApplicationPointType, PatternApplication


def is_reasonable(combo) -> bool:
    """Whether a combination repeats no point of a pattern and no graph-level pattern."""
    seen_points: set[tuple] = set()
    seen_graph_patterns: set[str] = set()
    for deployment in combo:
        point_key = (deployment.pattern.name,) + deployment.point.key()
        if point_key in seen_points:
            return False
        seen_points.add(point_key)
        if deployment.point.point_type is ApplicationPointType.GRAPH:
            if deployment.pattern.name in seen_graph_patterns:
                return False
            seen_graph_patterns.add(deployment.pattern.name)
    return True


def refresh_point(current: ETLGraph, deployment) -> ApplicationPoint | None:
    """The deployment's point if it still exists on ``current`` and is still valid."""
    point = deployment.point
    if point.point_type is ApplicationPointType.NODE:
        if point.node_id not in current:
            return None
    elif point.point_type is ApplicationPointType.EDGE:
        if not current.has_edge(*point.edge):
            return None
    if not deployment.pattern.is_applicable_at(current, point):
        return None
    return point


def reference_generate(
    generator: AlternativeGenerator, flow: ETLGraph
) -> tuple[list[AlternativeFlow], int]:
    """The alternative stream, rebuilt from scratch per combination.

    Returns the alternatives and the number of successful pattern
    applications (every combination replays its whole chain).
    """
    config = generator.configuration
    document = flow.to_dict()
    deployments = generator.candidate_deployments(flow)
    seen = {flow.signature()}
    alternatives: list[AlternativeFlow] = []
    patterns_applied = 0
    for size in range(1, config.pattern_budget + 1):
        for combo in itertools.combinations(deployments, size):
            if len(alternatives) >= config.max_alternatives:
                return alternatives, patterns_applied
            if not is_reasonable(combo):
                continue
            current = ETLGraph.from_dict(document)
            applied: list[PatternApplication] = []
            for deployment in combo:
                point = refresh_point(current, deployment)
                if point is None:
                    continue
                try:
                    current = deployment.pattern.apply(current, point)
                except (KeyError, ValueError):
                    continue
                patterns_applied += 1
                applied.append(PatternApplication(deployment.pattern.name, point))
            if not applied or has_errors(validate_flow(current)):
                continue
            signature = current.signature()
            if signature in seen:
                continue
            seen.add(signature)
            current.name = f"{flow.name}__{'+'.join(app.pattern for app in applied)}"
            alternatives.append(
                AlternativeFlow(
                    flow=current,
                    applications=tuple(applied),
                    label=f"ETL Flow {len(alternatives) + 1}",
                )
            )
    return alternatives, patterns_applied


def outcome(alternatives: list[AlternativeFlow]) -> list[tuple]:
    """The observable identity of an alternative stream, in order."""
    return [
        (a.label, a.applications, a.flow.name, a.flow.signature()) for a in alternatives
    ]
