"""Native JSON interchange format for ETL flows and quality profiles.

The flow format is a direct serialisation of the
:meth:`repro.etl.graph.ETLGraph.to_dict` structure; it round-trips every
detail of the flow (operations, configurations, cost models, edge schemas,
annotations and pattern lineage) and is the format the examples and
benchmarks persist their artefacts in.

The module is also the one profile codec: the redesign service's result
documents (:mod:`repro.service.results`), the cache ring's ``/get``,
``/get_many`` and ``/put`` bodies
(:class:`~repro.cache.http.HTTPProfileCache`,
:class:`~repro.service.CacheServer`, whose hot map keeps one-profile
documents) and the disk tier's entries
(:class:`~repro.cache.DiskProfileCache`).  Every such document states
:data:`WIRE_FORMAT` in its ``"format"`` field (:func:`check_format`
refuses any other) and lists its measure tables once
(:func:`tables_to_dict` / :func:`tables_from_dict`): per table, the
measure names and, column by column, their characteristics,
orientation, units, descriptions and weights.  Each profile
(:func:`profile_to_dict` / :func:`profile_from_dict`) is one row
``[table, values, normalized, scores]``: the position of its table in
the list and three arrays in that table's order, so profiles of two
registries in one document each point at their own table.  The round
trip is exact (floats survive because :mod:`json` serialises them with
``repr``).  :func:`profiles_to_dict` / :func:`profiles_from_dict` wrap a
list of profiles in one such document, and
:func:`merge_profile_documents` merges one-profile documents into one.
Cache keys need no codec: they are 64-hex strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.etl.graph import ETLGraph
from repro.quality.composite import MeasureTable, QualityProfile
from repro.quality.framework import QualityCharacteristic


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
#: states in its ``"format"`` field: result documents, the cache ring's
#: ``/get``, ``/get_many`` and ``/put`` bodies and the disk tier's
#: entries.  A peer of another format is refused, never decoded.
#: Format 3: profiles are rows against a list of measure tables.
WIRE_FORMAT = 3


#: ``QualityCharacteristic`` by value, for decoding tables.
_CHARACTERISTICS = {c.value: c for c in QualityCharacteristic}


class WireFormatError(ValueError):
    """A document of another wire format than :data:`WIRE_FORMAT`."""


def check_format(document: Mapping[str, Any]) -> None:
    """Raise :class:`WireFormatError` unless ``document`` is of :data:`WIRE_FORMAT`."""
    found = document.get("format") if isinstance(document, Mapping) else None
    if found != WIRE_FORMAT or isinstance(found, bool):
        raise WireFormatError(
            f"document of wire format {found!r}; this side speaks format {WIRE_FORMAT}"
        )


def profile_to_dict(profile: QualityProfile, tables: dict[MeasureTable, int]) -> list[Any]:
    """Serialise a quality profile as ``[table, values, normalized, scores]``.

    ``tables`` maps the document's measure tables to their positions; a
    table it lacks is added to it (:func:`tables_to_dict` encodes them).
    The inverse of :func:`profile_from_dict`; the round trip is exact
    (floats survive because :mod:`json` writes them with ``repr``).
    """
    row = (profile.raw_values, profile.normalized_values, profile.composite_scores)
    return [tables.setdefault(profile.table, len(tables)), *map(list, row)]


def tables_to_dict(tables: Mapping[MeasureTable, int]) -> list[dict[str, Any]]:
    """The ``"tables"`` list of a document, in the order ``tables`` numbers them."""
    columns = ("names", "higher_is_better", "units", "descriptions", "weights")
    return [
        dict(
            {column: list(getattr(table, column)) for column in columns},
            characteristics=[c.value for c in table.characteristics],
        )
        for table in tables
    ]


def tables_from_dict(tables: Sequence[Mapping[str, Any]]) -> list[MeasureTable]:
    """Decode a document's ``"tables"`` once, for :func:`profile_from_dict`."""
    return [
        MeasureTable(
            **dict(table, characteristics=[_CHARACTERISTICS[c] for c in table["characteristics"]])
        )
        for table in tables
    ]


def profile_from_dict(data: Sequence[Any], tables: Sequence[MeasureTable]) -> QualityProfile:
    """Rebuild a quality profile from :func:`profile_to_dict` output.

    ``tables`` are the document's tables as :func:`tables_from_dict`
    decodes them; profiles of one table share it.
    """
    index, values, normalized, scores = data
    table = tables[index]
    columns, composites = len(table.names), len(table.composites)
    if not len(values) == len(normalized) == columns or len(scores) != composites:
        raise ValueError("a profile row does not match its measure table")
    return QualityProfile(table, tuple(values), tuple(normalized), tuple(scores))


def profiles_to_dict(profiles: Sequence[QualityProfile | None]) -> dict[str, Any]:
    """A ``{"format", "tables", "profiles"}`` document; a ``None`` stays ``null``."""
    tables: dict[MeasureTable, int] = {}
    rows = [None if profile is None else profile_to_dict(profile, tables) for profile in profiles]
    return {"format": WIRE_FORMAT, "tables": tables_to_dict(tables), "profiles": rows}


def merge_profile_documents(
    documents: Sequence[Mapping[str, Any] | None],
) -> dict[str, Any]:
    """One document from one-profile :func:`profiles_to_dict` documents.

    The result equals :func:`profiles_to_dict` of the profiles, so a
    server can keep each profile encoded once and answer a batch by
    listing each distinct table once and pointing every row at it.
    """
    tables: list[Mapping[str, Any]] = []
    rows: list[list[Any] | None] = []
    for document in documents:
        if document is None:
            rows.append(None)
            continue
        (table,) = document["tables"]
        (row,) = document["profiles"]
        if table not in tables:
            tables.append(table)
        rows.append([tables.index(table), *row[1:]])
    return {"format": WIRE_FORMAT, "tables": tables, "profiles": rows}


def profiles_from_dict(document: Mapping[str, Any]) -> list[QualityProfile | None]:
    """The profiles of a :func:`profiles_to_dict` document (format checked)."""
    check_format(document)
    tables = tables_from_dict(document["tables"])
    return [
        None if entry is None else profile_from_dict(entry, tables)
        for entry in document["profiles"]
    ]
