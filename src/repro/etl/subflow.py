"""Merging sub-flows (pattern instances) into a host ETL flow.

The internal representation of a Flow Component Pattern is an ETL flow in
the same format as the process flow on which it is deployed (Section 3 of
the paper).  Deploying a pattern therefore means *grafting* one ETL graph
into another at a valid application point:

* on an **edge** -- the pattern sub-flow is interposed between two
  consecutive operations (e.g. ``FilterNullValues`` between a source and
  its consumer);
* on a **node** -- the node is replaced by an equivalent sub-flow (e.g.
  ``ParallelizeTask`` replaces a derive operation by partition / parallel
  copies / merge);
* on the **graph** -- process-wide configuration is attached to the flow
  annotations (encryption, access control, scheduling).

All functions return a *new* flow; the host flow passed in is never
mutated.  The new flow is a ``host.copy()``, so the graft is recorded as
a structured :class:`~repro.etl.graph.GraphDelta` (operations added,
transitions rewired, annotations set) that downstream validation and
deduplication exploit.  Grafted operations are new values (a sub-flow
operation with a fresh id, and the application point's schema where it
has none); the sub-flow's own operations are left as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation
from repro.etl.schema import Schema


@dataclass(frozen=True)
class SubflowInsertion:
    """Description of a sub-flow graft performed on a host flow.

    Attributes
    ----------
    host_name:
        Name of the host flow the graft was applied to.
    description:
        Human-readable description recorded in the flow lineage.
    added_operations:
        Identifiers (in the new flow) of the operations added by the graft.
    removed_operations:
        Identifiers of host operations removed by the graft (node
        replacement only).
    """

    host_name: str
    description: str
    added_operations: tuple[str, ...] = ()
    removed_operations: tuple[str, ...] = ()


def _unique_id(flow: ETLGraph, base: str) -> str:
    """Return an operation identifier not yet used in ``flow``.

    Collisions are disambiguated with a counter derived from the host
    flow itself (not from global state), so grafting is a pure function
    of the host and the sub-flow: repeated planning runs on the same host
    produce identically labelled operations.
    """
    candidate = base
    suffix = 2
    while candidate in flow:
        candidate = f"{base}__g{suffix}"
        suffix += 1
    return candidate


def _copy_subflow_into(
    host: ETLGraph, subflow: ETLGraph, suffix: str, schema: Schema
) -> dict[str, str]:
    """Copy every operation of ``subflow`` into ``host`` with fresh identifiers.

    A grafted operation whose output schema is empty inherits ``schema``,
    the schema at the application point.  Returns the mapping from
    original sub-flow identifiers to the identifiers used inside the host
    flow.  Edges internal to the sub-flow are copied as well.
    """
    mapping: dict[str, str] = {}
    for op in subflow.operations():
        new_id = _unique_id(host, f"{op.op_id}__{suffix}")
        # What ``dataclasses.replace(op, op_id=..., output_schema=...)``
        # builds, without its per-call walk over the fields.
        host.add_operation(
            Operation(
                op.kind, op.name, new_id, op.output_schema or schema, op.config, op.properties
            )
        )
        mapping[op.op_id] = new_id
    for edge in subflow.edges():
        # Both endpoints are freshly grafted nodes, acyclic by construction.
        host.add_edge(
            mapping[edge.source],
            mapping[edge.target],
            schema=edge.schema,
            label=edge.label,
            unchecked=True,
        )
    return mapping


def insert_on_edge(
    host: ETLGraph,
    edge_source: str,
    edge_target: str,
    subflow: ETLGraph,
    *,
    description: str = "",
) -> tuple[ETLGraph, SubflowInsertion]:
    """Interpose ``subflow`` on the transition ``edge_source -> edge_target``.

    The sub-flow must have exactly one entry operation (no predecessors)
    and one exit operation (no successors).  The original transition is
    removed and replaced by ``edge_source -> entry`` and ``exit ->
    edge_target`` transitions.  Every grafted operation whose output schema
    is empty inherits the schema that flowed over the replaced transition,
    ensuring the consistency between data schemata the paper requires.
    """
    if not host.has_edge(edge_source, edge_target):
        raise KeyError(f"host flow has no transition {edge_source!r} -> {edge_target!r}")
    entries = subflow.sources()
    exits = subflow.sinks()
    if len(entries) != 1 or len(exits) != 1:
        raise ValueError(
            "a sub-flow grafted on an edge needs exactly one entry and one exit "
            f"(got {len(entries)} entries, {len(exits)} exits)"
        )
    replaced_edge = host.edge(edge_source, edge_target)
    new_flow = host.copy()
    suffix = f"on_{edge_source}"
    mapping = _copy_subflow_into(new_flow, subflow, suffix, replaced_edge.schema)
    entry_id = mapping[entries[0].op_id]
    exit_id = mapping[exits[0].op_id]
    new_flow.remove_edge(edge_source, edge_target)
    # Interposing fresh nodes on an existing transition of a DAG cannot
    # close a cycle, so the insertion probes are skipped.
    new_flow.add_edge(
        edge_source, entry_id, schema=replaced_edge.schema, label=replaced_edge.label,
        unchecked=True,
    )
    new_flow.add_edge(
        exit_id, edge_target, schema=new_flow.operation(exit_id).output_schema, unchecked=True
    )
    insertion = SubflowInsertion(
        host_name=host.name,
        description=description or f"insert {subflow.name} on edge {edge_source}->{edge_target}",
        added_operations=tuple(mapping.values()),
    )
    new_flow.record_pattern(insertion.description)
    return new_flow, insertion


def replace_node(
    host: ETLGraph,
    op_id: str,
    subflow: ETLGraph,
    *,
    description: str = "",
) -> tuple[ETLGraph, SubflowInsertion]:
    """Replace the operation ``op_id`` by the given sub-flow.

    Every incoming transition of the replaced node is redirected to the
    sub-flow entry, every outgoing transition leaves from the sub-flow
    exit.  Grafted operations whose output schema is empty inherit the
    replaced operation's.  A pattern that must carry the replaced
    operation's cost model or configuration over (e.g. the parallel
    copies of a task perform the same derivation as the original task)
    builds its sub-flow from that operation.
    """
    if op_id not in host:
        raise KeyError(f"host flow has no operation {op_id!r}")
    entries = subflow.sources()
    exits = subflow.sinks()
    if len(entries) != 1 or len(exits) != 1:
        raise ValueError(
            "a sub-flow replacing a node needs exactly one entry and one exit "
            f"(got {len(entries)} entries, {len(exits)} exits)"
        )
    replaced = host.operation(op_id)
    incoming = [host.edge(p.op_id, op_id) for p in host.predecessors(op_id)]
    outgoing = [host.edge(op_id, s.op_id) for s in host.successors(op_id)]
    new_flow = host.copy()
    suffix = f"repl_{op_id}"
    mapping = _copy_subflow_into(new_flow, subflow, suffix, replaced.output_schema)
    entry_id = mapping[entries[0].op_id]
    exit_id = mapping[exits[0].op_id]
    new_flow.remove_operation(op_id)
    # Rewiring the replaced node's transitions onto the fresh entry/exit
    # preserves acyclicity: any new cycle would imply a path between a
    # successor and a predecessor of the replaced node, i.e. a cycle
    # through it in the original DAG.
    for edge in incoming:
        new_flow.add_edge(edge.source, entry_id, schema=edge.schema, label=edge.label,
                          unchecked=True)
    for edge in outgoing:
        new_flow.add_edge(exit_id, edge.target, schema=edge.schema, label=edge.label,
                          unchecked=True)
    insertion = SubflowInsertion(
        host_name=host.name,
        description=description or f"replace node {op_id} by {subflow.name}",
        added_operations=tuple(mapping.values()),
        removed_operations=(op_id,),
    )
    new_flow.record_pattern(insertion.description)
    return new_flow, insertion


def wrap_graph(
    host: ETLGraph,
    annotation_key: str,
    annotation_value: object,
    *,
    description: str = "",
) -> tuple[ETLGraph, SubflowInsertion]:
    """Apply a process-wide (graph-level) configuration to the flow.

    Graph-level patterns (security configuration, resource-tier selection,
    schedule-frequency adjustment) do not add operations; they attach an
    annotation that the measure estimators interpret.
    """
    new_flow = host.copy()
    new_flow.set_annotation(annotation_key, annotation_value)
    insertion = SubflowInsertion(
        host_name=host.name,
        description=description or f"graph-level configuration {annotation_key}={annotation_value!r}",
    )
    new_flow.record_pattern(insertion.description)
    return new_flow, insertion
