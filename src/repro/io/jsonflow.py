"""Native JSON interchange format for ETL flows and quality profiles.

The flow format is a direct serialisation of the
:meth:`repro.etl.graph.ETLGraph.to_dict` structure; it round-trips every
detail of the flow (operations, configurations, cost models, edge schemas,
annotations and pattern lineage) and is the format the examples and
benchmarks persist their artefacts in.

The module is also the one profile codec of the service layer: the
redesign service's result documents (:mod:`repro.service.results`) and
the cache ring's ``/get``, ``/get_many`` and ``/put`` bodies
(:class:`~repro.cache.http.HTTPProfileCache`,
:class:`~repro.service.CacheServer`).  Every such document states
:data:`WIRE_FORMAT` in its ``"format"`` field (:func:`check_format`
refuses any other) and carries one *measure table* -- measure name ->
characteristic, higher-is-better, unit, description -- so each profile
(:func:`profile_to_dict` / :func:`profile_from_dict`) sends only its
flow name, its composite scores and ``[value, normalized]`` per
measure.  The round trip is exact (floats survive because :mod:`json`
serialises them with ``repr``).  :func:`profiles_to_dict` /
:func:`profiles_from_dict` wrap a list of profiles in one such
document, and :func:`merge_profile_documents` merges one-profile
documents into one (the cache server keeps its hot entries encoded).
Cache keys need no codec: they are 64-hex strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

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

#: The number of the JSON wire format every profile-carrying document
#: states in its ``"format"`` field: result documents and the cache
#: ring's ``/get``, ``/get_many`` and ``/put`` bodies.  A peer of another
#: format is refused, never decoded.
WIRE_FORMAT = 2


class WireFormatError(ValueError):
    """A document of another wire format than :data:`WIRE_FORMAT`."""


def check_format(document: Mapping[str, Any]) -> None:
    """Raise :class:`WireFormatError` unless ``document`` is of :data:`WIRE_FORMAT`."""
    found = document.get("format") if isinstance(document, Mapping) else None
    if found != WIRE_FORMAT or isinstance(found, bool):
        raise WireFormatError(
            f"document of wire format {found!r}; this side speaks format {WIRE_FORMAT}"
        )


def _metadata(value: MeasureValue) -> dict[str, Any]:
    return {
        "characteristic": value.characteristic.value,
        "higher_is_better": value.higher_is_better,
        "unit": value.unit,
        "description": value.description,
    }


def profile_to_dict(profile: QualityProfile, measures: dict[str, Any]) -> dict[str, Any]:
    """Serialise a quality profile against a document's measure table.

    ``measures`` is the table of the document the profile goes into
    (measure name -> characteristic, higher-is-better, unit,
    description); a measure it lacks is added to it.  Each value travels
    as ``[value, normalized]``; one whose metadata differs from the
    table's entry under its name (a registry that reuses a name) carries
    its own as a third element.  The inverse of
    :func:`profile_from_dict`; the round trip is exact (floats survive
    because :mod:`json` writes them with ``repr``).
    """
    values = {}
    for name, value in profile.values.items():
        own = _metadata(value)
        listed = measures.setdefault(name, own)
        entry = [value.value, value.normalized]
        if listed != own or value.measure != name:
            entry.append(dict(own, measure=value.measure))
        values[name] = entry
    return {
        "flow_name": profile.flow_name,
        "scores": {c.value: score for c, score in profile.scores.items()},
        "values": values,
    }


def measures_from_dict(measures: Mapping[str, Any]) -> dict[str, tuple]:
    """Decode a document's measure table once, for :func:`profile_from_dict`."""
    return {name: _decode_metadata(name, entry) for name, entry in measures.items()}


def _decode_metadata(name: str, entry: Mapping[str, Any]) -> tuple:
    return (
        str(entry.get("measure", name)),
        QualityCharacteristic(entry["characteristic"]),
        bool(entry["higher_is_better"]),
        str(entry.get("unit", "")),
        str(entry.get("description", "")),
    )


def profile_from_dict(data: Mapping[str, Any], measures: Mapping[str, tuple]) -> QualityProfile:
    """Rebuild a quality profile from :func:`profile_to_dict` output.

    ``measures`` is the document's table as :func:`measures_from_dict`
    decodes it.
    """
    values = {}
    for name, entry in data["values"].items():
        measure, characteristic, higher_is_better, unit, description = (
            _decode_metadata(name, entry[2]) if len(entry) > 2 else measures[name]
        )
        values[name] = MeasureValue(
            measure, characteristic, entry[0], entry[1], higher_is_better, unit, description
        )
    scores = {
        QualityCharacteristic(name): score for name, score in data["scores"].items()
    }
    return QualityProfile(flow_name=data["flow_name"], scores=scores, values=values)


def profiles_to_dict(profiles: Sequence[QualityProfile | None]) -> dict[str, Any]:
    """A ``{"format", "measures", "profiles"}`` document; a ``None`` stays ``null``."""
    measures: dict[str, Any] = {}
    documents = [
        None if profile is None else profile_to_dict(profile, measures)
        for profile in profiles
    ]
    return {"format": WIRE_FORMAT, "measures": measures, "profiles": documents}


def merge_profile_documents(
    documents: Sequence[Mapping[str, Any] | None],
) -> dict[str, Any]:
    """One document from one-profile :func:`profiles_to_dict` documents.

    The result equals :func:`profiles_to_dict` of the profiles, so a
    server can keep each profile encoded once and answer a batch by
    merging the tables: a value whose name the merged table already
    lists with other metadata gets its own as a third element, as
    :func:`profile_to_dict` would give it.
    """
    measures: dict[str, Any] = {}
    merged: list[dict[str, Any] | None] = []
    for document in documents:
        if document is None:
            merged.append(None)
            continue
        (profile,) = document["profiles"]
        own = document["measures"]
        clashes = [name for name, entry in own.items() if measures.setdefault(name, entry) != entry]
        if clashes:
            values = dict(profile["values"])
            for name in clashes:
                if len(values[name]) == 2:
                    values[name] = [*values[name], dict(own[name], measure=name)]
            profile = dict(profile, values=values)
        merged.append(profile)
    return {"format": WIRE_FORMAT, "measures": measures, "profiles": merged}


def profiles_from_dict(document: Mapping[str, Any]) -> list[QualityProfile | None]:
    """The profiles of a :func:`profiles_to_dict` document (format checked)."""
    check_format(document)
    measures = measures_from_dict(document["measures"])
    return [
        None if entry is None else profile_from_dict(entry, measures)
        for entry in document["profiles"]
    ]
