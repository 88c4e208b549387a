"""A small YAML DSL for authoring ETL flows by hand.

The JSON interchange format (:mod:`repro.io.jsonflow`) is a faithful but
verbose serialisation of :meth:`~repro.etl.graph.ETLGraph.to_dict`; it is
what the tool persists, not what a person wants to write.  This module
adds the authoring-oriented counterpart: a compact YAML document that the
examples ship as ``examples/flow.yaml`` and that
:mod:`tools/run_flow.py <tools.run_flow>` accepts directly.

The document is one top-level ``flow`` mapping::

    flow:
      name: orders_refresh
      nodes:
        extract_orders:
          kind: extract_table
          schema: [o_orderkey:integer!, o_custkey:integer, o_total:decimal]
          config: {rows: 500}
        drop_nulls: {kind: filter_nulls}
        load_orders: {kind: load_table}
      edges:
        - extract_orders >> drop_nulls >> load_orders

* ``nodes`` maps each ``op_id`` to a mapping with a required ``kind``
  (any :class:`~repro.etl.operations.OperationKind` value) and optional
  ``name`` (defaults to the op id), ``schema``, ``config`` and
  ``properties`` (partial :class:`~repro.etl.properties.OperationProperties`
  overrides).
* Schema fields are either compact strings -- ``NAME:DTYPE`` with a
  trailing ``!`` marking a key field and ``?`` an explicitly nullable one
  (dtype names go through :meth:`~repro.etl.schema.DataType.parse`, so
  ``int``/``varchar``/``double`` aliases work) -- or explicit mappings
  ``{name, dtype, nullable, key}``.
* ``edges`` entries are either chain strings ``a >> b >> c`` (each
  ``>>`` hop becomes one edge carrying the source's output schema) or
  mappings ``{source, target, label, schema}`` for labelled router
  branches and explicit transition schemas.

Malformed documents fail with a :exc:`ValueError` naming the offending
construct (unknown operation kinds list the valid ones; edges that
reference undeclared nodes and cyclic specs are rejected) -- never with
a raw traceback from the graph internals.

:func:`flow_to_yaml` is the inverse: it emits the same dialect, omitting
everything that equals its default, so ``load -> dump -> load`` is a
fixpoint (the second dump is byte-identical to the first).  Pattern
lineage and annotations survive the round-trip; they are emitted only
when present.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

import yaml

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.properties import OperationProperties
from repro.etl.schema import DataType, Field, Schema

__all__ = [
    "flow_from_yaml",
    "flow_to_yaml",
    "load_flow_yaml",
    "save_flow_yaml",
]

_VALID_KINDS = tuple(kind.value for kind in OperationKind)
_NODE_KEYS = frozenset({"kind", "name", "schema", "config", "properties"})
_EDGE_KEYS = frozenset({"source", "target", "label", "schema"})
_DEFAULT_PROPERTIES = OperationProperties().to_dict()


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


def _parse_field(entry: Any, op_id: str) -> Field:
    """One schema field from its compact-string or mapping spelling."""
    if isinstance(entry, str):
        text = entry.strip()
        key = text.endswith("!")
        nullable = not key
        if text.endswith(("!", "?")):
            text = text[:-1]
        name, sep, dtype_text = text.partition(":")
        if not sep or not name.strip() or not dtype_text.strip():
            raise ValueError(
                f"node {op_id!r} has a malformed schema field {entry!r} "
                "(expected 'NAME:DTYPE', with optional trailing '!' for a "
                "key field or '?' for a nullable one)"
            )
        try:
            dtype = DataType.parse(dtype_text)
        except ValueError as exc:
            raise ValueError(f"node {op_id!r}: {exc}") from None
        return Field(name=name.strip(), dtype=dtype, nullable=nullable, key=key)
    if isinstance(entry, Mapping):
        unknown = set(entry) - {"name", "dtype", "type", "nullable", "key"}
        if unknown or "name" not in entry:
            raise ValueError(
                f"node {op_id!r} has a malformed schema field {dict(entry)!r} "
                "(mappings take name, dtype, nullable, key)"
            )
        dtype_text = str(entry.get("dtype", entry.get("type", "string")))
        try:
            dtype = DataType.parse(dtype_text)
        except ValueError as exc:
            raise ValueError(f"node {op_id!r}: {exc}") from None
        return Field(
            name=str(entry["name"]),
            dtype=dtype,
            nullable=bool(entry.get("nullable", True)),
            key=bool(entry.get("key", False)),
        )
    raise ValueError(
        f"node {op_id!r} has a schema field of type {type(entry).__name__}; "
        "use a 'NAME:DTYPE' string or a mapping"
    )


def _parse_schema(spec: Any, op_id: str) -> Schema:
    if spec is None:
        return Schema()
    if not isinstance(spec, (list, tuple)):
        raise ValueError(f"node {op_id!r}: schema must be a list of fields")
    return Schema([_parse_field(entry, op_id) for entry in spec])


def _parse_node(op_id: str, spec: Any) -> Operation:
    if not isinstance(spec, Mapping):
        raise ValueError(
            f"node {op_id!r} must be a mapping with at least a 'kind' entry"
        )
    unknown = set(spec) - _NODE_KEYS
    if unknown:
        raise ValueError(
            f"node {op_id!r} has unknown entries {sorted(unknown)} "
            f"(valid entries: {sorted(_NODE_KEYS)})"
        )
    if "kind" not in spec:
        raise ValueError(f"node {op_id!r} is missing the required 'kind' entry")
    kind_text = str(spec["kind"]).strip().lower()
    try:
        kind = OperationKind(kind_text)
    except ValueError:
        raise ValueError(
            f"node {op_id!r} has unknown operation kind {spec['kind']!r}; "
            f"valid kinds: {', '.join(_VALID_KINDS)}"
        ) from None
    config = spec.get("config") or {}
    if not isinstance(config, Mapping):
        raise ValueError(f"node {op_id!r}: config must be a mapping")
    properties_spec = spec.get("properties") or {}
    if not isinstance(properties_spec, Mapping):
        raise ValueError(f"node {op_id!r}: properties must be a mapping")
    unknown = set(properties_spec) - set(_DEFAULT_PROPERTIES)
    if unknown:
        raise ValueError(
            f"node {op_id!r} has unknown properties {sorted(unknown)} "
            f"(valid properties: {sorted(_DEFAULT_PROPERTIES)})"
        )
    return Operation(
        kind=kind,
        name=str(spec.get("name", op_id)),
        op_id=op_id,
        output_schema=_parse_schema(spec.get("schema"), op_id),
        config=dict(config),
        properties=OperationProperties.from_dict(properties_spec),
    )


def _edge_hops(entry: Any) -> list[dict[str, Any]]:
    """Normalise one ``edges`` entry into explicit source/target hops."""
    if isinstance(entry, str):
        stops = [stop.strip() for stop in entry.split(">>")]
        if len(stops) < 2 or any(not stop for stop in stops):
            raise ValueError(
                f"malformed edge {entry!r} (expected 'a >> b' or a chain "
                "'a >> b >> c')"
            )
        return [
            {"source": source, "target": target}
            for source, target in zip(stops, stops[1:])
        ]
    if isinstance(entry, Mapping):
        unknown = set(entry) - _EDGE_KEYS
        if unknown or "source" not in entry or "target" not in entry:
            raise ValueError(
                f"malformed edge {dict(entry)!r} (mappings take source, "
                "target, label, schema)"
            )
        return [dict(entry)]
    raise ValueError(
        f"edge entries must be '>>' strings or mappings, got "
        f"{type(entry).__name__}"
    )


def flow_from_yaml(text: str) -> ETLGraph:
    """Parse a flow from a YAML document in the DSL described above."""
    try:
        document = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"invalid YAML document: {exc}") from None
    if not isinstance(document, Mapping) or "flow" not in document:
        raise ValueError("a flow YAML document must contain a top-level 'flow' mapping")
    spec = document["flow"]
    if not isinstance(spec, Mapping):
        raise ValueError("the 'flow' entry must be a mapping")
    unknown = set(spec) - {"name", "nodes", "edges", "annotations"}
    if unknown:
        raise ValueError(
            f"the 'flow' mapping has unknown entries {sorted(unknown)} "
            "(valid entries: annotations, edges, name, nodes)"
        )
    nodes = spec.get("nodes") or {}
    if not isinstance(nodes, Mapping):
        raise ValueError("'nodes' must map operation ids to node specs")
    if not nodes:
        raise ValueError("a flow needs at least one node")

    flow = ETLGraph(name=str(spec.get("name", "etl_flow")))
    for op_id, node_spec in nodes.items():
        flow.add_operation(_parse_node(str(op_id), node_spec))

    edges = spec.get("edges") or []
    if not isinstance(edges, (list, tuple)):
        raise ValueError("'edges' must be a list of '>>' strings or mappings")
    for entry in edges:
        for hop in _edge_hops(entry):
            source, target = str(hop["source"]), str(hop["target"])
            for endpoint in (source, target):
                if endpoint not in nodes:
                    raise ValueError(
                        f"edge {source!r} -> {target!r} references undeclared "
                        f"node {endpoint!r}"
                    )
            schema = (
                _parse_schema(hop["schema"], source) if hop.get("schema") else None
            )
            try:
                flow.add_edge(
                    source, target, schema=schema, label=str(hop.get("label", ""))
                )
            except ValueError as exc:
                # Cycle probe and duplicate diagnostics, re-raised with the
                # document vocabulary instead of the graph-internal one.
                raise ValueError(f"invalid edge {source!r} -> {target!r}: {exc}") from None

    annotations = spec.get("annotations") or {}
    if not isinstance(annotations, Mapping):
        raise ValueError("'annotations' must be a mapping")
    flow.annotations.update(annotations)
    return flow


# ----------------------------------------------------------------------
# Dumping
# ----------------------------------------------------------------------


def _dump_field(field: Field) -> Any:
    default_nullable = not field.key
    if field.nullable == default_nullable:
        suffix = "!" if field.key else ""
        return f"{field.name}:{field.dtype.value}{suffix}"
    return {
        "name": field.name,
        "dtype": field.dtype.value,
        "nullable": field.nullable,
        "key": field.key,
    }


def _dump_node(operation: Operation) -> dict[str, Any]:
    node: dict[str, Any] = {"kind": operation.kind.value}
    if operation.name != operation.op_id:
        node["name"] = operation.name
    if len(operation.output_schema):
        node["schema"] = [_dump_field(field) for field in operation.output_schema]
    if operation.config:
        node["config"] = dict(operation.config)
    overrides = {
        key: value
        for key, value in operation.properties.to_dict().items()
        if value != _DEFAULT_PROPERTIES[key]
    }
    if overrides:
        node["properties"] = overrides
    return node


def flow_to_yaml(flow: ETLGraph) -> str:
    """Serialise a flow to the YAML DSL (inverse of :func:`flow_from_yaml`).

    Defaults are omitted (names equal to the op id, empty schemas and
    configs, default cost-model properties, edge schemas that match the
    source's output schema), so a document loaded and re-dumped reaches
    a byte-identical fixpoint.
    """
    nodes = {op.op_id: _dump_node(op) for op in flow.operations()}
    edges: list[Any] = []
    for edge in flow.edges_for_replay():
        source_schema = flow.operation(edge.source).output_schema
        if not edge.label and edge.schema.to_dict() == source_schema.to_dict():
            edges.append(f"{edge.source} >> {edge.target}")
            continue
        entry: dict[str, Any] = {"source": edge.source, "target": edge.target}
        if edge.label:
            entry["label"] = edge.label
        if edge.schema.to_dict() != source_schema.to_dict():
            entry["schema"] = [_dump_field(field) for field in edge.schema]
        edges.append(entry)
    spec: dict[str, Any] = {"name": flow.name, "nodes": nodes, "edges": edges}
    if flow.annotations:
        spec["annotations"] = dict(flow.annotations)
    return yaml.safe_dump(
        {"flow": spec}, sort_keys=False, default_flow_style=False, width=88
    )


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------


def save_flow_yaml(flow: ETLGraph, path: str | Path) -> Path:
    """Write a flow to a ``.yaml`` file and return the path."""
    target = Path(path)
    target.write_text(flow_to_yaml(flow), encoding="utf-8")
    return target


def load_flow_yaml(path: str | Path) -> ETLGraph:
    """Read a flow from a ``.yaml`` file."""
    return flow_from_yaml(Path(path).read_text(encoding="utf-8"))
