"""JSON round-trip of planning results (the ``/plans/<id>/result`` payload).

Every alternative is the initial flow plus a small delta, and every
profile of one plan comes from one measure registry, so the document
carries the shared parts once:

``format``
    :data:`repro.io.jsonflow.WIRE_FORMAT`; a decoder of another format
    refuses the document (:class:`~repro.io.jsonflow.WireFormatError`).
``initial_flow``
    The initial flow in full (:meth:`~repro.etl.graph.ETLGraph.to_dict`).
``tables``
    The measure tables the profiles are rows against (one per measure
    registry; :func:`~repro.io.jsonflow.tables_to_dict`).
``baseline_profile``
    The initial flow's profile: ``[table, values, normalized, scores]``
    (:func:`~repro.io.jsonflow.profile_to_dict`).
``alternatives``
    In generation order, each with its ``label``, ``applied`` and
    ``pattern_names`` lineage, its profile, and its flow as a ``delta``
    against the initial flow
    (:meth:`~repro.etl.graph.ETLGraph.to_delta_dict`): the changed
    operations, the removed ids, the complete ordered adjacency of every
    operation whose adjacency changed, the annotations, the lineage and
    the name.

plus ``skyline_indices``, ``characteristics`` and
``discarded_by_constraints``, exactly as
:class:`~repro.core.planner.PlanningResult` holds them.

:func:`result_from_dict` builds every flow before it returns: it
decodes the initial flow once and replays each delta on a fork of it
(:meth:`~repro.etl.graph.ETLGraph.replay_delta_dict`), so the decoded
alternatives share the untouched operations and adjacency with it and
merge their signatures and fingerprints from its.

One deliberate loss: pattern *applications* are structured objects bound
to live pattern instances, so the wire format carries their textual
lineage (``applied`` / ``pattern_names``) instead.
:func:`result_from_dict` therefore rebuilds alternatives with an empty
``applications`` tuple -- flows, labels, profiles, skyline and baseline
round-trip exactly, which is what result comparison and downstream
reporting need.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.alternatives import AlternativeFlow
from repro.core.planner import PlanningResult
from repro.etl.graph import ETLGraph
from repro.etl.schema import decoding_scope
from repro.io.jsonflow import (
    WIRE_FORMAT,
    check_format,
    profile_from_dict,
    profile_to_dict,
    tables_from_dict,
    tables_to_dict,
)
from repro.quality.composite import MeasureTable
from repro.quality.framework import QualityCharacteristic


def result_to_dict(result: PlanningResult) -> dict[str, Any]:
    """Serialise a planning result to a JSON-compatible document."""
    initial = result.initial_flow
    tables: dict[MeasureTable, int] = {}
    return {
        "format": WIRE_FORMAT,
        "initial_flow": initial.to_dict(),
        "baseline_profile": profile_to_dict(result.baseline_profile, tables),
        "characteristics": [c.value for c in result.characteristics],
        "discarded_by_constraints": result.discarded_by_constraints,
        "skyline_indices": list(result.skyline_indices),
        "alternatives": [
            {
                "label": alternative.label,
                "applied": alternative.describe(),
                "pattern_names": list(alternative.pattern_names),
                "delta": alternative.flow.to_delta_dict(initial),
                "profile": (
                    profile_to_dict(alternative.profile, tables)
                    if alternative.profile is not None
                    else None
                ),
            }
            for alternative in result.alternatives
        ],
        "tables": tables_to_dict(tables),  # last: encoding the profiles fills ``tables``
    }


def result_from_dict(data: Mapping[str, Any]) -> PlanningResult:
    """Rebuild a :class:`PlanningResult` from :func:`result_to_dict` output.

    Raises :class:`~repro.io.jsonflow.WireFormatError` for a document of
    another wire format.
    """
    check_format(data)
    # One document repeats a handful of schemas across every changed
    # operation and transition: each distinct one is decoded once.
    with decoding_scope():
        initial = ETLGraph.from_dict(data["initial_flow"])
        tables = tables_from_dict(data["tables"])
        alternatives = [
            AlternativeFlow(
                flow=initial.replay_delta_dict(entry["delta"]),
                applications=(),  # textual lineage only -- see the module docstring
                profile=(
                    profile_from_dict(entry["profile"], tables)
                    if entry.get("profile") is not None
                    else None
                ),
                label=entry.get("label", ""),
            )
            for entry in data["alternatives"]
        ]
    return PlanningResult(
        initial_flow=initial,
        baseline_profile=profile_from_dict(data["baseline_profile"], tables),
        alternatives=alternatives,
        skyline_indices=list(data.get("skyline_indices", [])),
        characteristics=tuple(
            QualityCharacteristic(name) for name in data.get("characteristics", [])
        ),
        discarded_by_constraints=int(data.get("discarded_by_constraints", 0)),
    )
