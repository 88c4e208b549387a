"""Native JSON interchange format for ETL flows and quality profiles.

The flow format is a direct serialisation of the
:meth:`repro.etl.graph.ETLGraph.to_dict` structure; it round-trips every
detail of the flow (operations, configurations, cost models, edge schemas,
annotations and pattern lineage) and is the format the examples and
benchmarks persist their artefacts in.

The module is also the JSON codec of the service layer
(:mod:`repro.service` and the network cache tier):
:func:`profile_to_dict` / :func:`profile_from_dict` round-trip
:class:`~repro.quality.composite.QualityProfile` instances exactly
(floats survive because :mod:`json` serialises them with ``repr``).
Cache keys need no codec: they are 64-hex strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from repro.etl.graph import ETLGraph
from repro.quality.composite import QualityProfile
from repro.quality.framework import MeasureValue, QualityCharacteristic


def flow_to_json(flow: ETLGraph, indent: int = 2) -> str:
    """Serialise a flow to a JSON string."""
    return json.dumps(flow.to_dict(), indent=indent, sort_keys=False)


def flow_from_json(text: str) -> ETLGraph:
    """Parse a flow from a JSON string produced by :func:`flow_to_json`."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a flow JSON document must contain a JSON object")
    return ETLGraph.from_dict(data)


def save_flow_json(flow: ETLGraph, path: str | Path) -> Path:
    """Write a flow to a ``.json`` file and return the path."""
    target = Path(path)
    target.write_text(flow_to_json(flow), encoding="utf-8")
    return target


def load_flow_json(path: str | Path) -> ETLGraph:
    """Read a flow from a ``.json`` file."""
    return flow_from_json(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Quality profiles (the wire currency of the service layer)
# ----------------------------------------------------------------------


def profile_to_dict(profile: QualityProfile) -> dict[str, Any]:
    """Serialise a quality profile to a JSON-compatible dict.

    The inverse of :func:`profile_from_dict`; the round-trip is exact
    (scores and measure values compare equal), which the network cache
    tier relies on for its tier-equivalence guarantee.
    """
    return {
        "flow_name": profile.flow_name,
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
            }
            for name, v in profile.values.items()
        },
    }


def profile_from_dict(data: Mapping[str, Any]) -> QualityProfile:
    """Rebuild a quality profile from :func:`profile_to_dict` output."""
    values = {
        name: MeasureValue(
            measure=entry["measure"],
            characteristic=QualityCharacteristic(entry["characteristic"]),
            value=entry["value"],
            normalized=entry["normalized"],
            higher_is_better=entry["higher_is_better"],
            unit=entry.get("unit", ""),
            description=entry.get("description", ""),
        )
        for name, entry in data["values"].items()
    }
    scores = {
        QualityCharacteristic(name): score for name, score in data["scores"].items()
    }
    return QualityProfile(flow_name=data["flow_name"], scores=scores, values=values)

