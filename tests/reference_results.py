"""A full-flow reference codec for planning results.

The service's result document carries the initial flow once and every
alternative as a delta against it, with one measure table for all
profiles (:mod:`repro.service.results`).  This reference does none of
that: every flow travels whole (:meth:`ETLGraph.to_dict`) and every
measure value carries its own metadata, from which each decoded profile
gets a measure table of its own.  Decoding builds each flow from
scratch with :meth:`ETLGraph.from_dict`, so a disagreement with the
service codec points at the delta encoding or replay, or at the measure
table, not at the flow or profile model.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.alternatives import AlternativeFlow
from repro.core.planner import PlanningResult
from repro.etl.graph import ETLGraph
from repro.quality.composite import MeasureTable, QualityProfile
from repro.quality.framework import QualityCharacteristic


def reference_profile_to_dict(profile: QualityProfile) -> dict[str, Any]:
    """A profile with every measure value's metadata inline."""
    weights = dict(zip(profile.table.names, profile.table.weights))
    return {
        "scores": {c.value: score for c, score in profile.scores.items()},
        "values": {
            name: {
                "measure": v.measure,
                "characteristic": v.characteristic.value,
                "value": v.value,
                "normalized": v.normalized,
                "higher_is_better": v.higher_is_better,
                "unit": v.unit,
                "description": v.description,
                "weight": weights[name],
            }
            for name, v in profile.values.items()
        },
    }


def reference_profile_from_dict(data: Mapping[str, Any]) -> QualityProfile:
    """The inverse of :func:`reference_profile_to_dict`: a table of the profile's own."""
    entries = list(data["values"].values())
    table = MeasureTable(
        names=tuple(entry["measure"] for entry in entries),
        characteristics=tuple(QualityCharacteristic(e["characteristic"]) for e in entries),
        higher_is_better=tuple(entry["higher_is_better"] for entry in entries),
        units=tuple(entry["unit"] for entry in entries),
        descriptions=tuple(entry["description"] for entry in entries),
        weights=tuple(entry["weight"] for entry in entries),
    )
    return QualityProfile(
        table,
        tuple(entry["value"] for entry in entries),
        tuple(entry["normalized"] for entry in entries),
        tuple(data["scores"][c.value] for c in table.composites),
    )


def reference_result_to_dict(result: PlanningResult) -> dict[str, Any]:
    """A result document with every flow in full."""
    return {
        "initial_flow": result.initial_flow.to_dict(),
        "baseline_profile": reference_profile_to_dict(result.baseline_profile),
        "characteristics": [c.value for c in result.characteristics],
        "discarded_by_constraints": result.discarded_by_constraints,
        "skyline_indices": list(result.skyline_indices),
        "alternatives": [
            {
                "label": alternative.label,
                "flow": alternative.flow.to_dict(),
                "profile": (
                    reference_profile_to_dict(alternative.profile)
                    if alternative.profile is not None
                    else None
                ),
            }
            for alternative in result.alternatives
        ],
    }


def reference_result_from_dict(data: Mapping[str, Any]) -> PlanningResult:
    """The inverse of :func:`reference_result_to_dict`, every flow built from scratch."""
    return PlanningResult(
        initial_flow=ETLGraph.from_dict(data["initial_flow"]),
        baseline_profile=reference_profile_from_dict(data["baseline_profile"]),
        alternatives=[
            AlternativeFlow(
                flow=ETLGraph.from_dict(entry["flow"]),
                applications=(),
                profile=(
                    reference_profile_from_dict(entry["profile"])
                    if entry["profile"] is not None
                    else None
                ),
                label=entry["label"],
            )
            for entry in data["alternatives"]
        ],
        skyline_indices=list(data["skyline_indices"]),
        characteristics=tuple(QualityCharacteristic(name) for name in data["characteristics"]),
        discarded_by_constraints=int(data["discarded_by_constraints"]),
    )
