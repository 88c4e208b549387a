"""The ETL flow graph.

Following the paper, an ETL process is modelled as one graph ``G`` with
components ``(V, E)``: each node represents an ETL flow operation and each
directed edge represents a transition from one operation to a successor
one.  :class:`ETLGraph` stores that graph in three insertion-ordered
dicts -- operations by id, and successor and predecessor adjacency
holding the :class:`Edge` records -- and answers the structural queries
the planner and the quality estimators rely on (sources, sinks,
topological order, longest path, reachability, distances) with plain
graph walks over them.

Pattern application produces thousands of near-identical flows, and
every one of them is its initial flow plus the deltas of the patterns
applied to it.  The graph has one copy discipline built on that:
operations are frozen values (:class:`~repro.etl.operations.Operation`,
with read-only ``config`` and ``properties.extra``), so ``copy()`` shares
every payload with the original, unconditionally, and shares the
per-operation adjacency dicts until a write privatizes them.  Every write
goes through the graph API (``update_operation``, ``add_edge``,
``set_annotation``, ...), which records a structured :class:`GraphDelta`
against the copy parent and keeps an incrementally maintained structural
signature and content fingerprint.

The delta makes downstream stages O(delta) as well: validation re-checks
only the delta neighbourhood (:func:`repro.etl.validation.validate_delta`),
deduplication merges the parent signature with the delta (and reuses
the parent's node or edge tuple outright when the delta leaves it
alone), and the profile-cache key reuses the parent's per-operation
fingerprint digests and hashes the flow as bytes -- a count header,
the 32-byte operation digests, the NUL-terminated edge ids and the
annotations -- never the ``repr`` of the whole flow (see
:meth:`ETLGraph.fingerprint`).  The topological order is memoized per
structure version (see :class:`ETLGraph`); the simulator, the
structural measures and the executor's compiler all read it.  The wire
ships the difference too: :meth:`ETLGraph.to_delta_dict` encodes a flow
against a base flow, and :meth:`ETLGraph.replay_delta_dict` rebuilds it
as a fork of that base.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from bisect import bisect_left, insort
from collections import abc
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping

from repro.etl.operations import MERGER_KINDS, Operation, OperationKind
from repro.etl.schema import Schema

_graph_uid_counter = itertools.count(1)


def _reach(start: str, *adjacencies: Mapping[str, Mapping[str, Any]]) -> Iterator[str]:
    """Every operation reachable from ``start`` (itself excluded), each once.

    Walks the union of ``adjacencies`` -- ``_succ`` for descendants,
    ``_pred`` for ancestors, both for the weakly connected component.
    Lazy, so a reachability probe stops at the first hit.
    """
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for adjacency in adjacencies:
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
                    yield other


def _hops_to_end(adjacency: Mapping[str, Mapping[str, Any]], start: str) -> int:
    """Hops from ``start`` to the nearest operation with no neighbours in ``adjacency``.

    One breadth-first walk: the first generation holding an operation
    without neighbours (a source over ``_pred``, a sink over ``_succ``)
    gives the shortest distance.
    """
    generation = [start]
    seen = {start}
    hops = 0
    while generation:
        following = []
        for node in generation:
            neighbours = adjacency[node]
            if not neighbours:
                return hops
            for other in neighbours:
                if other not in seen:
                    seen.add(other)
                    following.append(other)
        generation = following
        hops += 1
    return 0


def _edge_code(key: tuple[str, str]) -> bytes:
    """One transition's part of the fingerprint: its two endpoint ids, NUL-separated.

    The fingerprint's transition segment is these codes joined by NUL
    bytes, which equals encoding every endpoint id NUL-separated in one
    go (the encoding works code point by code point).
    """
    return f"{key[0]}\x00{key[1]}".encode("utf-8", "surrogatepass")


def _operation_entry(op: Operation) -> tuple[str, bytes]:
    """The fingerprint entry of one operation: its id and a 32-byte content digest.

    The digest is the SHA-256 of the ``repr`` of one flat tuple, ``(op_id,
    kind code, parallelism, schema code, config items, properties
    code)``: everything about the operation that influences measures (see
    :meth:`ETLGraph.fingerprint`).  The schema and properties codes are
    SHA-256 digests of their canonical texts, memoized on those frozen
    values (:meth:`Schema.fingerprint_code`,
    :meth:`OperationProperties.fingerprint_code`) and shared by every
    operation that shares the value, so a changed operation costs one
    short ``repr`` and one hash.  The ``repr`` of a tuple of strings and
    integers is injective.  The id stays in the clear so entries sort,
    and merge from a copy parent, by id.
    """
    content = (
        op.op_id,
        op.kind._value_,
        op.parallelism,
        op.output_schema.fingerprint_code(),
        tuple(sorted((str(k), repr(v)) for k, v in op.config.items())),
        op.properties.fingerprint_code(),
    )
    return (op.op_id, hashlib.sha256(repr(content).encode("utf-8")).digest())


#: The digest of a fingerprint entry, read in C by ``map``.
_DIGEST = itemgetter(1)


def _drop_ids(entries: list[tuple], ids: Iterable[str]) -> None:
    """Delete the entries keyed ``ids`` from ``entries``, sorted and keyed by first item.

    Each id is found by bisection (a one-tuple ``(op_id,)`` sorts just
    before every entry it starts); ids without an entry are skipped.
    """
    for op_id in ids:
        index = bisect_left(entries, (op_id,))
        if index < len(entries) and entries[index][0] == op_id:
            del entries[index]


#: The value of every delta part and ownership set nothing has written
#: yet: forks allocate their sets on first write, so the steps that leave
#: a part empty (most of them) never pay for it.  Writers test the type,
#: never the identity (see :func:`_with`).
_NO_IDS: frozenset = frozenset()


class _NoAnnotations(abc.Mapping):
    """The read-only empty mapping an unwritten ``annotations_set`` holds.

    A module singleton that pickles by reference, so an unpickled delta
    holds it too.
    """

    __slots__ = ()

    def __getitem__(self, key: str) -> Any:
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __hash__(self) -> int:  # a dataclass field default must be hashable
        return 0

    def __reduce__(self) -> str:
        return "_NO_ANNOTATIONS"


_NO_ANNOTATIONS: Mapping[str, Any] = _NoAnnotations()


@dataclass
class GraphDelta:
    """The net structural difference of a flow against its copy parent.

    Recorded automatically on graphs created with :meth:`ETLGraph.copy`:
    every mutation performed through the :class:`ETLGraph` API updates the
    delta so that, at any point, replaying the delta on the parent yields
    the child.  Entries are *net* effects -- an operation added and then
    removed again leaves no trace.

    A part stays the shared empty value (an empty ``frozenset``, or an
    empty read-only mapping for ``annotations_set``) until the first
    recording helper writes to it, which swaps in a ``set`` or a ``dict``
    of its own.  Read the parts freely; write them only through the
    ``record_*`` helpers.

    Attributes
    ----------
    ops_added / ops_removed:
        Identifiers of operations added to / removed from the parent.
    ops_modified:
        Identifiers of parent operations whose payload was replaced
        through :meth:`ETLGraph.update_operation`.
    edges_added / edges_removed:
        ``(source, target)`` pairs of transitions added / removed.
    edges_modified:
        Transitions whose schema was replaced in place.
    annotations_set:
        Graph annotations set through :meth:`ETLGraph.set_annotation`.
    """

    ops_added: set[str] | frozenset = _NO_IDS
    ops_removed: set[str] | frozenset = _NO_IDS
    ops_modified: set[str] | frozenset = _NO_IDS
    edges_added: set[tuple[str, str]] | frozenset = _NO_IDS
    edges_removed: set[tuple[str, str]] | frozenset = _NO_IDS
    edges_modified: set[tuple[str, str]] | frozenset = _NO_IDS
    annotations_set: Mapping[str, Any] = _NO_ANNOTATIONS

    def is_empty(self) -> bool:
        """Whether the delta records no change at all."""
        return not (
            self.ops_added
            or self.ops_removed
            or self.ops_modified
            or self.edges_added
            or self.edges_removed
            or self.edges_modified
            or self.annotations_set
        )

    def summary(self) -> dict[str, int]:
        """Compact size report (used by generation statistics)."""
        return {
            "ops_added": len(self.ops_added),
            "ops_removed": len(self.ops_removed),
            "ops_modified": len(self.ops_modified),
            "edges_added": len(self.edges_added),
            "edges_removed": len(self.edges_removed),
            "edges_modified": len(self.edges_modified),
            "annotations_set": len(self.annotations_set),
        }

    def compose(self, later: "GraphDelta") -> "GraphDelta":
        """The net delta of applying this delta and then ``later``.

        Nothing in the planner calls it: it is the net composition the
        tests use as the oracle for per-step delta chaining.  Composition
        goes through the same net-effect recording helpers, so transient
        changes that ``later`` reverts (an operation added then removed,
        an edge restored) cancel out exactly as if the mutations had been
        recorded on one graph.
        """
        merged = GraphDelta(
            ops_added=set(self.ops_added),
            ops_removed=set(self.ops_removed),
            ops_modified=set(self.ops_modified),
            edges_added=set(self.edges_added),
            edges_removed=set(self.edges_removed),
            edges_modified=set(self.edges_modified),
            annotations_set=dict(self.annotations_set),
        )
        for op_id in later.ops_removed:
            merged.record_op_removed(op_id)
        for op_id in later.ops_added:
            merged.record_op_added(op_id)
        for op_id in later.ops_modified:
            merged.record_op_modified(op_id)
        for key in later.edges_removed:
            merged.record_edge_removed(key)
        for key in later.edges_added:
            merged.record_edge_added(key)
        for key in later.edges_modified:
            merged.record_edge_modified(key)
        merged.annotations_set.update(later.annotations_set)
        return merged

    def is_structural(self) -> bool:
        """Whether the delta changes anything validation could observe."""
        return bool(
            self.ops_added
            or self.ops_removed
            or self.ops_modified
            or self.edges_added
            or self.edges_removed
            or self.edges_modified
        )

    # -- recording helpers (net-effect bookkeeping) ---------------------

    def record_op_added(self, op_id: str) -> None:
        if op_id in self.ops_removed:
            # Removed and re-added: the payload may differ from the parent.
            self.ops_removed = _without(self.ops_removed, op_id)
            self.ops_modified = _with(self.ops_modified, op_id)
        else:
            self.ops_added = _with(self.ops_added, op_id)

    def record_op_removed(self, op_id: str) -> None:
        if op_id in self.ops_added:
            self.ops_added = _without(self.ops_added, op_id)
        else:
            if op_id in self.ops_modified:
                self.ops_modified = _without(self.ops_modified, op_id)
            self.ops_removed = _with(self.ops_removed, op_id)

    def record_op_modified(self, op_id: str) -> None:
        if op_id not in self.ops_added:
            self.ops_modified = _with(self.ops_modified, op_id)

    def record_edge_added(self, key: tuple[str, str]) -> None:
        if key in self.edges_removed:
            self.edges_removed = _without(self.edges_removed, key)
            self.edges_modified = _with(self.edges_modified, key)
        else:
            self.edges_added = _with(self.edges_added, key)

    def record_edge_removed(self, key: tuple[str, str]) -> None:
        if key in self.edges_added:
            self.edges_added = _without(self.edges_added, key)
        else:
            if key in self.edges_modified:
                self.edges_modified = _without(self.edges_modified, key)
            self.edges_removed = _with(self.edges_removed, key)

    def record_edge_modified(self, key: tuple[str, str]) -> None:
        if key not in self.edges_added:
            self.edges_modified = _with(self.edges_modified, key)

    def record_annotation(self, key: str, value: Any) -> None:
        annotations = self.annotations_set
        if type(annotations) is not dict:
            annotations = self.annotations_set = dict(annotations)
        annotations[key] = value


def _with(part: set | frozenset, item: Any) -> set:
    """``part`` with ``item`` added: ``part`` itself once it is a ``set``, else a new one.

    Tests the type, never the identity, so a part that went through
    pickle (a different empty ``frozenset``) is replaced just the same.
    """
    if type(part) is not set:
        part = set(part)
    part.add(item)
    return part


def _without(part: set | frozenset, item: Any) -> set:
    """``part`` with ``item`` discarded, made writable as :func:`_with` does."""
    if type(part) is not set:
        part = set(part)
    part.discard(item)
    return part


@dataclass(frozen=True)
class Edge:
    """A directed transition between two operations.

    The ``schema`` describes the records flowing over the transition; the
    ``label`` distinguishes multiple outputs of a router node (e.g. the
    "error"/"ok" branches of a validation split).
    """

    source: str
    target: str
    schema: Schema = field(default_factory=Schema)
    label: str = ""

    def key(self) -> tuple[str, str]:
        """The ``(source, target)`` pair identifying this edge in the graph."""
        return (self.source, self.target)


class ETLGraph:
    """A directed acyclic graph of ETL operations.

    The graph offers dictionary-style access to operations by their
    ``op_id`` and exposes the structural queries needed by the pattern
    applicability checks (sources, sinks, topological order, longest path,
    fan-in/fan-out) and by the manageability measures.

    Storage: ``_nodes`` maps each id to its :class:`Operation`, and
    ``_succ[u][v]`` / ``_pred[v][u]`` both hold the :class:`Edge` of the
    transition ``u -> v``.  The three outer dicts list the operations in
    the same (insertion) order; each inner dict lists neighbours in edge
    insertion order.  Values are never mutated in place: operations and
    edges are frozen, so writes install a new ``Operation`` or ``Edge``.

    Structure memo: the topological order (as operation ids) and one
    longest path are computed once per structure version and memoized.
    The contract is ``_version``: every mutation goes through the graph
    API, whose ``_dirty()`` bumps it and so retires the memo.  The memo
    holds ids only, and pickling drops it.
    """

    def __init__(self, name: str = "etl_flow") -> None:
        self.name = name
        self._nodes: dict[str, Operation] = {}
        self._succ: dict[str, dict[str, Edge]] = {}
        self._pred: dict[str, dict[str, Edge]] = {}
        self.annotations: dict[str, Any] = {}
        # The lineage is a tuple: forks share it until they append.
        self._lineage: tuple[str, ...] = ()
        # Copy bookkeeping.  ``_delta`` (copies only) records the net
        # difference against the copy parent; ``_parent_sig`` and
        # ``_parent_fp`` snapshot the parent's ``_sig_cache`` and
        # ``_fp_cache`` so the child's are computed by merging the delta
        # instead of re-hashing the whole flow.
        # Copy-on-write, at two levels.  ``_shared_nodes`` (the operation
        # dict) and ``_shared_links`` (the two outer adjacency dicts) are
        # set on both sides of a fork, which shares those dicts outright;
        # the first write on either side copies them.  When
        # ``_shared_adj`` is set (after a fork, on both sides), the
        # per-node adjacency dicts may be shared with another graph;
        # ``_own_succ``/``_own_pred`` name the nodes whose dicts this
        # graph has already privatized (an empty ``frozenset`` until the
        # first privatization allocates a set).
        self._shared_nodes: bool = False
        self._shared_links: bool = False
        self._shared_adj: bool = False
        self._own_succ: set[str] | frozenset | None = None
        self._own_pred: set[str] | frozenset | None = None
        self._delta: GraphDelta | None = None
        self._parent_uid: int | None = None
        self._parent_sig: tuple | None = None
        self._parent_fp: tuple | None = None
        self._parent_ref: "ETLGraph | None" = None
        # ``(nodes, edges, edge codes)``: the structural signature and,
        # aligned with the edge tuple, each transition's encoded part of
        # the fingerprint (:func:`_edge_code`).  The codes travel with
        # the edges: a child that keeps the parent's edge tuple keeps
        # its codes, and one that changes transitions splices both.
        self._sig_cache: tuple | None = None
        self._fp_cache: tuple | None = None
        # Bumped by every mutation; a child only merges from its parent's
        # snapshots if the parent is still in the state it was forked from.
        self._version: int = 0
        self._parent_version: int = 0
        # Structure memo: ``(version, topological ids)`` and ``(version,
        # longest path ids)``, valid while ``_version`` is unchanged.
        # Ids only -- kinds and properties are always read live.
        self._order_memo: tuple[int, tuple[str, ...]] | None = None
        self._longest_memo: tuple[int, tuple[str, ...]] | None = None
        self._uid: int = next(_graph_uid_counter)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _dirty(self) -> None:
        """Invalidate the cached signature, fingerprint and structure memo.

        Bumping ``_version`` is what retires the structure memo.
        """
        self._sig_cache = None
        self._fp_cache = None
        self._version += 1

    def _writable_nodes(self) -> dict[str, Operation]:
        """The operation dict, privatized for writing."""
        if self._shared_nodes:
            self._nodes = dict(self._nodes)
            self._shared_nodes = False
        return self._nodes

    def _own_links(self) -> None:
        """Privatize the two outer adjacency dicts for writing.

        The per-node dicts they hold stay shared; :meth:`_succ_of` and
        :meth:`_pred_of` privatize those one by one.  A per-node dict
        this graph owns implies outer dicts it owns, since both sides of
        a fork restart with no per-node dict owned.
        """
        if self._shared_links:
            self._succ = dict(self._succ)
            self._pred = dict(self._pred)
            self._shared_links = False

    def _succ_of(self, op_id: str) -> dict[str, Edge]:
        """The successor dict of ``op_id``, privatized for writing."""
        if self._shared_adj and op_id not in self._own_succ:
            self._own_links()
            self._succ[op_id] = dict(self._succ[op_id])
            self._owned_succ().add(op_id)
        return self._succ[op_id]

    def _pred_of(self, op_id: str) -> dict[str, Edge]:
        """The predecessor dict of ``op_id``, privatized for writing."""
        if self._shared_adj and op_id not in self._own_pred:
            self._own_links()
            self._pred[op_id] = dict(self._pred[op_id])
            self._owned_pred().add(op_id)
        return self._pred[op_id]

    def _owned_succ(self) -> set[str]:
        """The writable ``_own_succ`` set, allocated on first write."""
        own = self._own_succ
        if type(own) is not set:
            own = self._own_succ = set()
        return own

    def _owned_pred(self) -> set[str]:
        """The writable ``_own_pred`` set, allocated on first write."""
        own = self._own_pred
        if type(own) is not set:
            own = self._own_pred = set()
        return own

    def _write_edge(self, edge: Edge) -> None:
        """Insert or replace ``edge`` in both adjacency directions.

        Dicts shared with copies are privatized first, so they keep the
        old record.  Both endpoints must exist.
        """
        self._succ_of(edge.source)[edge.target] = edge
        self._pred_of(edge.target)[edge.source] = edge

    def _require(self, op_id: str) -> None:
        """Raise a ``KeyError`` naming ``op_id`` unless it is an operation of the flow."""
        if op_id not in self._nodes:
            raise KeyError(f"unknown operation: {op_id!r}")

    def add_operation(self, operation: Operation) -> Operation:
        """Add an operation as a new node.

        Raises
        ------
        ValueError
            If an operation with the same ``op_id`` already exists.
        """
        op_id = operation.op_id
        if op_id in self._nodes:
            raise ValueError(f"duplicate operation id: {op_id!r}")
        self._writable_nodes()[op_id] = operation
        self._own_links()
        self._succ[op_id] = {}
        self._pred[op_id] = {}
        if self._shared_adj:
            # The freshly created adjacency dicts are private already.
            self._owned_succ().add(op_id)
            self._owned_pred().add(op_id)
        self._dirty()
        if self._delta is not None:
            self._delta.record_op_added(op_id)
        return operation

    def add_edge(
        self,
        source: str | Operation,
        target: str | Operation,
        schema: Schema | None = None,
        label: str = "",
        *,
        unchecked: bool = False,
    ) -> Edge:
        """Add a transition between two existing operations.

        When ``schema`` is omitted, the output schema of the source
        operation is used, which is the common case for linear pipelines.
        ``unchecked=True`` skips the cycle probe; it is reserved for
        callers that guarantee acyclicity by construction (cloning an
        existing DAG, grafting fresh nodes), where the probe would
        re-traverse the flow for nothing.
        """
        source_id = source.op_id if isinstance(source, Operation) else source
        target_id = target.op_id if isinstance(target, Operation) else target
        if source_id not in self._nodes:
            raise KeyError(f"unknown source operation: {source_id!r}")
        if target_id not in self._nodes:
            raise KeyError(f"unknown target operation: {target_id!r}")
        if source_id == target_id:
            raise ValueError(f"self-loop on {source_id!r} is not allowed in an ETL flow")
        # The graph was acyclic before, so the new edge closes a cycle iff
        # the target already reaches the source.  This early-exiting
        # reachability probe replaces a full-graph DAG recomputation and
        # keeps edge insertion proportional to the affected region.
        if not unchecked and source_id in _reach(target_id, self._succ):
            raise ValueError(
                f"adding edge {source_id!r} -> {target_id!r} would create a cycle"
            )
        effective_schema = schema if schema is not None else self._nodes[source_id].output_schema
        edge = Edge(source=source_id, target=target_id, schema=effective_schema, label=label)
        self._write_edge(edge)
        self._dirty()
        if self._delta is not None:
            self._delta.record_edge_added((source_id, target_id))
        return edge

    def remove_edge(self, source: str, target: str) -> None:
        """Remove the transition ``source -> target``."""
        if not self.has_edge(source, target):
            raise KeyError(f"no edge {source!r} -> {target!r}")
        del self._succ_of(source)[target]
        del self._pred_of(target)[source]
        self._dirty()
        if self._delta is not None:
            self._delta.record_edge_removed((source, target))

    def remove_operation(self, op_id: str) -> None:
        """Remove an operation and all its incident transitions."""
        self._require(op_id)
        preds = self._pred[op_id]
        succs = self._succ[op_id]
        for pred in preds:
            del self._succ_of(pred)[op_id]
        for succ in succs:
            del self._pred_of(succ)[op_id]
        del self._writable_nodes()[op_id]
        self._own_links()
        del self._succ[op_id], self._pred[op_id]
        if self._shared_adj:
            if op_id in self._own_succ:
                self._own_succ.discard(op_id)
            if op_id in self._own_pred:
                self._own_pred.discard(op_id)
        self._dirty()
        if self._delta is not None:
            for pred in preds:
                self._delta.record_edge_removed((pred, op_id))
            for succ in succs:
                self._delta.record_edge_removed((op_id, succ))
            self._delta.record_op_removed(op_id)

    def relabel_operation(self, op_id: str, new_id: str) -> None:
        """Change the identifier of an operation (keeping all edges).

        The renamed operation moves to the end of the operation order and
        of each neighbour's adjacency dict, as networkx's in-place
        relabelling does.
        """
        self._require(op_id)
        if new_id in self._nodes:
            raise ValueError(f"operation id already in use: {new_id!r}")
        renamed = replace(self._nodes[op_id], op_id=new_id)  # validates before any write
        succs = self._succ[op_id]
        preds = self._pred[op_id]
        self.remove_operation(op_id)
        self.add_operation(renamed)
        for succ, edge in succs.items():
            self.add_edge(new_id, succ, edge.schema, edge.label, unchecked=True)
        for pred, edge in preds.items():
            self.add_edge(pred, new_id, edge.schema, edge.label, unchecked=True)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def __contains__(self, op_id: object) -> bool:
        return op_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def operation(self, op_id: str) -> Operation:
        """Return the operation with the given identifier.

        Operations are frozen values, possibly shared with copies of the
        flow; change one through :meth:`update_operation`.
        """
        try:
            return self._nodes[op_id]
        except KeyError:
            raise KeyError(f"unknown operation: {op_id!r}") from None

    def update_operation(self, op_id: str, **changes: Any) -> Operation:
        """Replace operation ``op_id`` by a copy with ``changes`` applied.

        The one write path for operation payloads: ``changes`` are fields
        of :class:`~repro.etl.operations.Operation`, applied with
        ``dataclasses.replace``.  The new operation takes the old one's
        place (same position, same transitions), is recorded as modified
        in the graph delta, and the cached signature and fingerprint are
        invalidated.  Returns the new operation.  Identifiers change
        through :meth:`relabel_operation` instead.
        """
        updated = replace(self.operation(op_id), **changes)
        self._writable_nodes()[op_id] = updated
        self._dirty()
        if self._delta is not None:
            self._delta.record_op_modified(op_id)
        return updated

    def operations(self) -> list[Operation]:
        """All operations, in insertion order."""
        return list(self._nodes.values())

    def operation_ids(self) -> list[str]:
        """All operation identifiers, in insertion order."""
        return list(self._nodes)

    def edges(self) -> list[Edge]:
        """All transitions of the flow, by source operation then edge insertion."""
        return [edge for succs in self._succ.values() for edge in succs.values()]

    def edges_for_replay(self) -> list[Edge]:
        """All transitions, in an order that rebuilds both adjacency orders.

        Adding the edges to a fresh graph in this order (as
        :meth:`from_dict` and the YAML loader do) gives every operation
        the successor order *and* the predecessor order it has here; the
        executor takes join inputs, and the simulator sums inputs, in
        predecessor order.  The order is the first linear extension, by
        :meth:`edges` position, of every operation's successor order and
        predecessor order -- one always exists, since the edges' own
        insertion history is one -- so it equals :meth:`edges` whenever
        that already is one.
        """
        edges = self.edges()
        index = {(edge.source, edge.target): position for position, edge in enumerate(edges)}
        waiting = [0] * len(edges)
        releases: list[list[int]] = [[] for _ in edges]
        for adjacency in (self._succ, self._pred):
            for neighbours in adjacency.values():
                chain = [index[edge.source, edge.target] for edge in neighbours.values()]
                for earlier, later in zip(chain, chain[1:]):
                    waiting[later] += 1
                    releases[earlier].append(later)
        ready = [position for position, count in enumerate(waiting) if not count]
        heapq.heapify(ready)
        order: list[Edge] = []
        while ready:
            position = heapq.heappop(ready)
            order.append(edges[position])
            for later in releases[position]:
                waiting[later] -= 1
                if not waiting[later]:
                    heapq.heappush(ready, later)
        return order

    def out_edges(self, op_id: str) -> list[Edge]:
        """The transitions leaving ``op_id``, in edge insertion order."""
        self._require(op_id)
        return list(self._succ[op_id].values())

    def edge(self, source: str, target: str) -> Edge:
        """Return the transition ``source -> target``."""
        try:
            return self._succ[source][target]
        except KeyError:
            raise KeyError(f"no edge {source!r} -> {target!r}") from None

    def has_edge(self, source: str, target: str) -> bool:
        """Whether the transition ``source -> target`` exists."""
        return target in self._succ.get(source, ())

    def set_edge_schema(self, source: str, target: str, schema: Schema) -> None:
        """Replace the schema carried by an existing transition."""
        existing = self.edge(source, target)
        self._write_edge(Edge(source=source, target=target, schema=schema, label=existing.label))
        self._dirty()
        if self._delta is not None:
            self._delta.record_edge_modified((source, target))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of operations in the flow."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of transitions in the flow."""
        return sum(map(len, self._succ.values()))

    def sources(self) -> list[Operation]:
        """Operations with no predecessors (the extraction points), in insertion order."""
        return [self._nodes[n] for n, preds in self._pred.items() if not preds]

    def sinks(self) -> list[Operation]:
        """Operations with no successors (the loading points), in insertion order."""
        return [self._nodes[n] for n, succs in self._succ.items() if not succs]

    def has_source(self) -> bool:
        """Whether at least one operation has no predecessors (early exit)."""
        return any(not preds for preds in self._pred.values())

    def has_sink(self) -> bool:
        """Whether at least one operation has no successors (early exit)."""
        return any(not succs for succs in self._succ.values())

    def predecessors(self, op_id: str) -> list[Operation]:
        """Operations feeding directly into ``op_id``, in edge insertion order."""
        self._require(op_id)
        return [self._nodes[n] for n in self._pred[op_id]]

    def successors(self, op_id: str) -> list[Operation]:
        """Operations fed directly by ``op_id``, in edge insertion order."""
        self._require(op_id)
        return [self._nodes[n] for n in self._succ[op_id]]

    def predecessor_ids(self, op_id: str) -> list[str]:
        """Identifiers of the operations feeding ``op_id``, in edge insertion order."""
        self._require(op_id)
        return list(self._pred[op_id])

    def successor_ids(self, op_id: str) -> list[str]:
        """Identifiers of the operations fed by ``op_id``, in edge insertion order."""
        self._require(op_id)
        return list(self._succ[op_id])

    def in_degree(self, op_id: str) -> int:
        """Number of incoming transitions of ``op_id``."""
        self._require(op_id)
        return len(self._pred[op_id])

    def out_degree(self, op_id: str) -> int:
        """Number of outgoing transitions of ``op_id``."""
        self._require(op_id)
        return len(self._succ[op_id])

    def topological_ids(self) -> tuple[str, ...]:
        """Operation identifiers in topological order (sources first).

        Kahn's algorithm by generations: the operations without
        predecessors in insertion order, then each generation expanded
        through its successors in edge insertion order.  This is exactly
        the order ``networkx.topological_sort`` yields; the simulator
        draws source volumes in it, so every plan depends on it.  Sorted
        once per structure version and memoized.
        """
        memo = self._order_memo
        if memo is None or memo[0] != self._version:
            succ = self._succ
            indegree = {n: len(preds) for n, preds in self._pred.items()}
            generation = [n for n, degree in indegree.items() if not degree]
            order: list[str] = []
            while generation:
                order.extend(generation)
                following = []
                for node in generation:
                    for child in succ[node]:
                        indegree[child] -= 1
                        if not indegree[child]:
                            following.append(child)
                generation = following
            if len(order) != len(indegree):
                raise ValueError(f"flow {self.name!r} contains a cycle")
            memo = self._order_memo = (self._version, tuple(order))
        return memo[1]

    def predecessor_positions(self) -> tuple[tuple[int, ...], ...]:
        """Per operation in :meth:`topological_ids` order, its predecessors' positions there.

        Each entry lists the predecessors in edge insertion order, as
        :meth:`predecessor_ids` does, by their index in the topological
        order.  One pass, for consumers that walk the order by position.
        """
        order = self.topological_ids()
        position = {op_id: index for index, op_id in enumerate(order)}
        pred = self._pred
        return tuple(tuple(map(position.__getitem__, pred[op_id])) for op_id in order)

    def topological_order(self) -> list[Operation]:
        """Operations in a topological order (sources first)."""
        return [self._nodes[n] for n in self.topological_ids()]

    def _longest_path_ids(self) -> tuple[str, ...]:
        """One longest path as operation ids, memoized per structure version.

        One DP pass over the topological order: each operation extends
        its first deepest predecessor (in edge insertion order), and the
        path ends at the first deepest operation in topological order --
        the tie-break of ``networkx.dag_longest_path``.
        """
        memo = self._longest_memo
        if memo is None or memo[0] != self._version:
            pred = self._pred
            depth: dict[str, int] = {}
            parent: dict[str, str] = {}
            end = None
            for op_id in self.topological_ids():
                here = 0
                for p in pred[op_id]:
                    if depth[p] + 1 > here:
                        here = depth[p] + 1
                        parent[op_id] = p
                depth[op_id] = here
                if end is None or here > depth[end]:
                    end = op_id
            path = []
            while end is not None:
                path.append(end)
                end = parent.get(end)
            memo = self._longest_memo = (self._version, tuple(reversed(path)))
        return memo[1]

    def longest_path_length(self) -> int:
        """Length (in edges) of the longest path of the flow.

        This is the "length of process workflow's longest path"
        manageability measure of Fig. 1, read off the memoized path.
        """
        return max(len(self._longest_path_ids()) - 1, 0)

    def longest_path(self) -> list[Operation]:
        """Operations along one longest path of the flow."""
        return [self._nodes[n] for n in self._longest_path_ids()]

    def upstream_of(self, op_id: str) -> set[str]:
        """Identifiers of every operation from which ``op_id`` is reachable."""
        self._require(op_id)
        return set(_reach(op_id, self._pred))

    def downstream_of(self, op_id: str) -> set[str]:
        """Identifiers of every operation reachable from ``op_id``."""
        self._require(op_id)
        return set(_reach(op_id, self._succ))

    def distance_from_sources(self, op_id: str) -> int:
        """Shortest number of hops from any source operation to ``op_id``.

        Used by the placement heuristics that push data-cleaning patterns
        as close as possible to the extraction operations.
        """
        self._require(op_id)
        return _hops_to_end(self._pred, op_id)

    def distance_to_sinks(self, op_id: str) -> int:
        """Shortest number of hops from ``op_id`` to any sink operation."""
        self._require(op_id)
        return _hops_to_end(self._succ, op_id)

    def operations_of_kind(self, *kinds: OperationKind) -> list[Operation]:
        """All operations whose kind is one of ``kinds``, in insertion order.

        Kinds are matched by identity (tuple membership), never through
        ``Enum.__hash__``, a Python-level call per operation.
        """
        return [op for op in self._nodes.values() if op.kind in kinds]

    def is_connected(self) -> bool:
        """Whether the flow forms a single weakly connected component."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        return 1 + sum(1 for _ in _reach(start, self._succ, self._pred)) == len(self._nodes)

    def coupling(self) -> float:
        """Average fan-in/fan-out coupling of the flow.

        Defined as ``edges / nodes``; a linear pipeline has coupling just
        below 1, heavily branching flows have higher coupling.  This is the
        "coupling of process workflow" manageability measure of Fig. 1.
        """
        if self.node_count == 0:
            return 0.0
        return self.edge_count / self.node_count

    def merge_element_count(self) -> int:
        """Number of operations that combine multiple data inputs.

        This is the "# of merge elements in the process model"
        manageability measure of Fig. 1.  Operations with an in-degree
        above one are counted as well, because structurally they merge
        branches even if their declared kind is not a merger.
        """
        pred = self._pred
        count = 0
        for op_id, op in self._nodes.items():
            if op.kind in MERGER_KINDS or len(pred[op_id]) > 1:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Lineage / annotations
    # ------------------------------------------------------------------

    @property
    def applied_patterns(self) -> list[str]:
        """Human-readable record of the pattern applications that produced this flow."""
        return list(self._lineage)

    def record_pattern(self, description: str) -> None:
        """Append a pattern application record to the flow lineage."""
        self._lineage += (description,)

    def set_annotation(self, key: str, value: Any) -> None:
        """Set a graph-level annotation, recording it in the delta.

        Equivalent to assigning into :attr:`annotations` directly, but
        visible to delta-based tooling; graph-level patterns go through
        here.  (The signature and the fingerprint always read the live
        annotation dict, so direct assignment stays correct as well.)
        """
        self.annotations[key] = value
        if self._delta is not None:
            self._delta.record_annotation(key, value)

    # ------------------------------------------------------------------
    # Delta / derivation introspection
    # ------------------------------------------------------------------

    @property
    def delta(self) -> GraphDelta | None:
        """The recorded delta against the copy parent (copies only)."""
        return self._delta

    def derived_from(self, parent: "ETLGraph") -> bool:
        """Whether this graph was produced by ``parent.copy()``.

        Used by the alternative generator to decide if the recorded delta
        can be chained onto the parent's validation state.
        """
        return self._parent_uid is not None and self._parent_uid == parent._uid

    # ------------------------------------------------------------------
    # Copying / comparison
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "ETLGraph":
        """Return a copy of the flow that evolves independently of it.

        A cheap fork that copies no container: the copy shares every
        operation payload with this graph (operations are frozen values)
        and shares the operation dict and the adjacency dicts until a
        write on either side privatizes them -- the outer dicts on the
        first structural write, each per-operation adjacency dict on the
        first write to it.  A fork that only sets annotations never
        copies the structure at all.  Its delta parts are allocated on
        first write as well (see :class:`GraphDelta`).  The copy records
        each later mutation in its :class:`GraphDelta` (:attr:`delta`) and
        maintains :meth:`signature` and :meth:`fingerprint`
        incrementally from this graph's, so downstream validation,
        deduplication and cache keys cost O(delta).

        The parent's structural signature and fingerprint entries are
        captured lazily, on the copy's first signature or fingerprint
        request: candidates discarded before deduplication never pay for
        them.  The reference is dropped as soon as they are captured, so
        no parent chain is kept alive beyond that point.

        Forking the *same* parent repeatedly is cheap and safe; the
        alternative generator's prefix cache leans on this -- one cached
        prefix flow is extended into many sibling candidates, each a
        fresh fork of the same unchanged parent.

        Parameters
        ----------
        name:
            Optional name of the copy (defaults to this flow's name).
        """
        # Built without ``__init__``, whose fresh containers the fork
        # would only replace; the attributes are set in ``__init__``'s
        # order.  The lineage tuple is shared until either side appends.
        clone = ETLGraph.__new__(ETLGraph)
        clone.name = name or self.name
        clone._nodes = self._nodes
        clone._succ = self._succ
        clone._pred = self._pred
        clone.annotations = dict(self.annotations)
        clone._lineage = self._lineage
        # After the fork every dict of the structure is shared between
        # the two graphs, so both sides restart their copy-on-write
        # tracking.
        clone._shared_nodes = True
        clone._shared_links = True
        clone._shared_adj = True
        clone._own_succ = _NO_IDS
        clone._own_pred = _NO_IDS
        clone._delta = GraphDelta()
        clone._parent_uid = self._uid
        clone._parent_sig = None
        clone._parent_fp = None
        clone._parent_ref = self
        clone._sig_cache = None
        clone._fp_cache = None
        clone._version = 0
        clone._parent_version = self._version
        clone._order_memo = None
        clone._longest_memo = None
        clone._uid = next(_graph_uid_counter)
        self._shared_nodes = True
        self._shared_links = True
        if not self._shared_adj or self._own_succ or self._own_pred:
            self._shared_adj = True
            self._own_succ = _NO_IDS
            self._own_pred = _NO_IDS
        return clone

    def structurally_equal(self, other: "ETLGraph") -> bool:
        """Whether two flows have the same operations (by id/kind) and transitions."""
        if set(self.operation_ids()) != set(other.operation_ids()):
            return False
        for op_id in self.operation_ids():
            if self.operation(op_id).kind != other.operation(op_id).kind:
                return False
        mine = {(e.source, e.target) for e in self.edges()}
        theirs = {(e.source, e.target) for e in other.edges()}
        return mine == theirs

    def signature(self) -> tuple:
        """A hashable signature used to deduplicate alternatives.

        Covers the structure (operations with kind and parallelism, plus
        transitions) *and* the graph annotations, so that graph-level
        (annotation-only) patterns produce distinguishable flows instead
        of being pruned as duplicates of their host.  The structural part
        is cached and, on copies, maintained incrementally from the parent
        signature plus the recorded delta; the annotation part is always
        read live (annotation dicts are tiny and may be assigned
        directly).
        """
        nodes, edges, _ = self._structural_signature()
        return (nodes, edges, self._annotation_items())

    def _annotation_items(self) -> tuple:
        """The live annotations as sorted ``(str(key), repr(value))`` pairs."""
        if not self.annotations:
            return ()
        return tuple(sorted((str(k), repr(v)) for k, v in self.annotations.items()))

    def _capture_parent(self) -> None:
        """Snapshot the copy parent's signature and fingerprint caches, once.

        A parent mutated since the fork no longer matches the recorded
        delta; the child then computes both from scratch.
        """
        parent = self._parent_ref
        if parent is not None:
            self._parent_ref = None
            if parent._version == self._parent_version:
                self._parent_sig = parent._structural_signature()
                self._parent_fp = parent._operation_entries()

    def _structural_signature(self) -> tuple:
        """``(nodes, edges, edge code)``, cached per structure version.

        The first two are the structural part of :meth:`signature`; the
        edge code is the transition segment of :meth:`fingerprint`.
        """
        if self._sig_cache is not None:
            return self._sig_cache
        self._capture_parent()
        if self._parent_sig is not None and self._delta is not None:
            signature = self._merge_parent_signature()
        else:
            nodes = tuple(
                sorted(
                    (op.op_id, op.kind._value_, op.parallelism)
                    for op in self._nodes.values()
                )
            )
            edges = tuple(sorted((e.source, e.target) for e in self.edges()))
            signature = (nodes, edges, tuple(map(_edge_code, edges)))
        self._sig_cache = signature
        return signature

    def _merge_parent_signature(self) -> tuple:
        """Parent structural signature + delta -> this graph's signature.

        Each changed entry is spliced in or out of a copy of the parent's
        sorted tuple by bisection, and each changed transition's code
        with it.  A part the delta does not touch is the parent's tuple
        itself: an annotation-only delta returns the parent's cache
        whole, and a delta that changes operations but no transition
        keeps the parent's edges and their codes.
        """
        parent = self._parent_sig
        nodes, edges, edge_codes = parent
        delta = self._delta
        ops_added, ops_modified = delta.ops_added, delta.ops_modified
        ops_removed = delta.ops_removed
        edges_added, edges_removed = delta.edges_added, delta.edges_removed
        if ops_added or ops_modified or ops_removed:
            merged = list(nodes)
            for gone in (ops_removed, ops_added, ops_modified):
                if gone:
                    _drop_ids(merged, gone)
            present = self._nodes
            for changed in (ops_added, ops_modified):
                for op_id in changed:
                    op = present.get(op_id)
                    if op is not None:
                        insort(merged, (op_id, op.kind._value_, op.parallelism))
            nodes = tuple(merged)
        elif not (edges_added or edges_removed):
            return parent
        if edges_added or edges_removed:
            kept = list(edges)
            codes = list(edge_codes)
            for gone in (edges_removed, edges_added):
                for key in gone:
                    index = bisect_left(kept, key)
                    if index < len(kept) and kept[index] == key:
                        del kept[index], codes[index]
            succ = self._succ
            for key in edges_added:
                if key[1] in succ.get(key[0], ()):
                    index = bisect_left(kept, key)
                    kept.insert(index, key)
                    codes.insert(index, _edge_code(key))
            edges = tuple(kept)
            edge_codes = tuple(codes)
        return (nodes, edges, edge_codes)

    def fingerprint(self) -> str:
        """A content digest (64 lowercase hex) of everything that influences measures.

        Strictly finer than :meth:`signature`: besides the transitions it
        covers each operation's kind, parallelism, output schema, config
        and properties (costs, selectivities, rates), plus the graph
        annotations -- everything the simulator and the static
        estimators read.  The flow *name* and pattern lineage are left
        out, so equal flows reached through different pattern
        combinations share one profile-cache entry.

        It is one SHA-256 over four byte segments, with no ``repr`` of
        the whole flow:

        1. the header ``f"{n}:{m}:"`` -- the operation count ``n`` and
           the transition count ``m``;
        2. the ``n`` 32-byte operation digests (:func:`_operation_entry`),
           in id order;
        3. the ``2m`` endpoint ids of the sorted transitions, each
           followed by a NUL byte (a lone NUL when ``m`` is 0);
        4. the ``repr`` of the sorted annotation items.

        The encoding is injective, so distinct contents never share the
        bytes that are hashed (short of a SHA-256 collision between two
        operation digests): the header's digit runs end at the first
        and second ``:``; the counts then fix the width of the digest
        segment and the number of ids, ids end at a NUL because an
        operation id may not contain one (``Operation`` refuses it), and
        the annotations are the rest.  The entries are cached and, on
        copies, merged from the parent's entries plus the recorded delta
        (an unchanged operation's digest is shared with the parent, never
        recomputed); the transitions are those of the structural
        signature, each encoded once (:func:`_edge_code`) and shared with
        every fork that keeps it; the annotations are read live.
        """
        entries = self._operation_entries()
        _, edges, edge_codes = self._structural_signature()
        return hashlib.sha256(
            b"".join(
                (
                    f"{len(entries)}:{len(edges)}:".encode(),
                    b"".join(map(_DIGEST, entries)),
                    b"\x00".join(edge_codes),
                    b"\x00",
                    repr(self._annotation_items()).encode("utf-8"),
                )
            )
        ).hexdigest()

    def _operation_entries(self) -> tuple:
        """The sorted per-operation part of the fingerprint, cached per version."""
        if self._fp_cache is not None:
            return self._fp_cache
        self._capture_parent()
        if self._parent_fp is not None and self._delta is not None:
            entries = self._merge_parent_entries()
        else:
            entries = tuple(sorted(_operation_entry(op) for op in self.operations()))
        self._fp_cache = entries
        return entries

    def _merge_parent_entries(self) -> tuple:
        """Parent fingerprint entries + delta -> this graph's, spliced by bisection."""
        delta = self._delta
        ops_added, ops_modified = delta.ops_added, delta.ops_modified
        ops_removed = delta.ops_removed
        if not (ops_added or ops_modified or ops_removed):
            return self._parent_fp
        entries = list(self._parent_fp)
        for gone in (ops_removed, ops_added, ops_modified):
            if gone:
                _drop_ids(entries, gone)
        present = self._nodes
        for changed in (ops_added, ops_modified):
            for op_id in changed:
                op = present.get(op_id)
                if op is not None:
                    insort(entries, _operation_entry(op))
        return tuple(entries)

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """Privatize shared structure dicts before pickling.

        Flows are picklable values.  A parent and a copy pickled in the
        same payload would otherwise come back sharing structure dicts
        while believing they own them; privatizing here
        keeps every unpickled graph self-contained.  Operations need no
        such care: they are frozen values, safe to share.
        """
        state = self.__dict__.copy()
        if self._shared_nodes:
            state["_nodes"] = dict(self._nodes)
            state["_shared_nodes"] = False
        if self._shared_adj:
            state["_succ"] = {op_id: dict(succs) for op_id, succs in self._succ.items()}
            state["_pred"] = {op_id: dict(preds) for op_id, preds in self._pred.items()}
            state["_shared_links"] = False
            state["_shared_adj"] = False
            state["_own_succ"] = None
            state["_own_pred"] = None
        if self._parent_ref is not None:
            # Never drag the copy-parent chain through pickle; the
            # unpickled graph recomputes its signature from scratch.
            state["_parent_ref"] = None
            state["_parent_sig"] = None
        # The fingerprint entries are rebuilt on demand after unpickling,
        # so a pickle stays the size of the flow itself.
        state["_parent_fp"] = None
        state["_fp_cache"] = None
        state["_order_memo"] = None
        state["_longest_memo"] = None
        return state

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialise the whole flow to a JSON-friendly structure."""
        return {
            "name": self.name,
            "annotations": dict(self.annotations),
            "applied_patterns": list(self._lineage),
            "operations": [op.to_dict() for op in self.operations()],
            "edges": [
                {
                    "source": e.source,
                    "target": e.target,
                    "label": e.label,
                    "schema": e.schema.to_dict(),
                }
                for e in self.edges_for_replay()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ETLGraph":
        """Deserialise a flow produced by :meth:`to_dict`."""
        flow = cls(name=str(data.get("name", "etl_flow")))
        for op_data in data.get("operations", []):
            flow.add_operation(Operation.from_dict(op_data))
        for edge_data in data.get("edges", []):
            flow.add_edge(
                str(edge_data["source"]),
                str(edge_data["target"]),
                schema=Schema.from_dict(edge_data.get("schema", [])),
                label=str(edge_data.get("label", "")),
            )
        flow.annotations = dict(data.get("annotations", {}))
        flow._lineage = tuple(str(item) for item in data.get("applied_patterns", []))
        return flow

    def to_delta_dict(self, base: "ETLGraph") -> dict[str, Any]:
        """Serialise this flow as its difference from ``base``.

        The inverse of :meth:`replay_delta_dict` on ``base``; the replayed
        flow's :meth:`to_dict` equals this flow's.  The document holds
        the name, annotations and lineage in full, plus:

        ``removed``
            Ids of ``base`` operations to drop first.
        ``operations``
            The added or changed operations (:meth:`Operation.to_dict`),
            in this flow's insertion order.  An operation of ``base``
            that this flow lists out of ``base``'s order is removed and
            re-added, so replaying appends it where this flow has it.
        ``successors``
            ``{op_id: [[target, label, schema], ...]}``: the complete,
            ordered successor list of every operation whose successors
            differ from ``base``'s (after the removals).  ``schema`` is
            ``null`` when it is the source operation's output schema.
        ``predecessors``
            ``{op_id: [source, ...]}``: the same for predecessor lists,
            whose edges are the ones the successor lists name.

        Payloads and adjacency dicts a fork still shares with ``base``
        compare by identity, so a fork's delta costs O(flow) identity
        checks plus O(delta) encoding.  Anything else compares by value:
        a flow that is not a fork of ``base`` gets a correct delta at
        the cost of comparing every operation and adjacency list.
        """
        base_nodes = base._nodes
        base_position = {op_id: index for index, op_id in enumerate(base_nodes)}
        operations: list[dict[str, Any]] = []
        appended: set[str] = set()
        last = -1
        for op_id, op in self._nodes.items():
            position = base_position.get(op_id, -1) if not appended else -1
            if position > last:
                last = position
                base_op = base_nodes[op_id]
                if op is not base_op and op != base_op:
                    operations.append(op.to_dict())
                continue
            appended.add(op_id)
            operations.append(op.to_dict())
        gone = {op_id for op_id in base_nodes if op_id not in self._nodes}
        gone.update(op_id for op_id in appended if op_id in base_nodes)

        def changed(op_id: str, mine: dict, theirs: Mapping[str, dict]) -> bool:
            if op_id in appended:
                return bool(mine)
            before = theirs[op_id]
            if mine is before:
                return False
            return list(mine.items()) != [
                item for item in before.items() if item[0] not in gone
            ]

        successors: dict[str, list] = {}
        predecessors: dict[str, list[str]] = {}
        for op_id, op in self._nodes.items():
            succs = self._succ[op_id]
            if changed(op_id, succs, base._succ):
                output = op.output_schema
                successors[op_id] = [
                    [
                        target,
                        edge.label,
                        None
                        if edge.schema is output or edge.schema == output
                        else edge.schema.to_dict(),
                    ]
                    for target, edge in succs.items()
                ]
            preds = self._pred[op_id]
            if changed(op_id, preds, base._pred):
                predecessors[op_id] = list(preds)
        return {
            "name": self.name,
            "annotations": dict(self.annotations),
            "applied_patterns": list(self._lineage),
            "removed": sorted(gone),
            "operations": operations,
            "successors": successors,
            "predecessors": predecessors,
        }

    def replay_delta_dict(self, data: Mapping[str, Any]) -> "ETLGraph":
        """A fork of this flow with a :meth:`to_delta_dict` document applied.

        The result is a real copy of this flow (:meth:`copy`): it shares
        every untouched payload and adjacency dict, records the replayed
        changes in its :attr:`delta`, and so merges its signature and
        fingerprint from this flow's.  A document whose adjacency lists
        disagree with each other, or that closes a cycle, raises
        ``ValueError``; one naming an unknown operation raises
        ``KeyError``.
        """
        flow = self.copy(name=str(data["name"]))
        flow._writable_nodes()
        flow._own_links()
        delta = flow._delta
        for op_id in data["removed"]:
            flow.remove_operation(op_id)
        for op_data in data["operations"]:
            op = Operation.from_dict(op_data)
            if op.op_id in flow._nodes:
                flow._nodes[op.op_id] = op
                delta.record_op_modified(op.op_id)
            else:
                flow.add_operation(op)
        nodes, succ, pred = flow._nodes, flow._succ, flow._pred
        rewired: list[tuple[str, dict[str, Edge]]] = []
        for source, entries in data["successors"].items():
            flow._require(source)
            output = nodes[source].output_schema
            before = succ[source]
            after: dict[str, Edge] = {}
            for target, label, schema_data in entries:
                flow._require(target)
                schema = output if schema_data is None else Schema.from_dict(schema_data)
                edge = before.get(target)
                if edge is None:
                    delta.record_edge_added((source, target))
                elif edge.label != label or edge.schema != schema:
                    delta.record_edge_modified((source, target))
                else:
                    after[target] = edge
                    continue
                after[target] = Edge(source=source, target=target, schema=schema, label=label)
            for target in before:
                if target not in after:
                    delta.record_edge_removed((source, target))
            succ[source] = after
            flow._owned_succ().add(source)
            rewired.append((source, before))
        for target, sources in data["predecessors"].items():
            flow._require(target)
            before = pred[target]
            try:
                pred[target] = {source: succ[source][target] for source in sources}
            except KeyError:
                raise ValueError(
                    f"delta lists a predecessor of {target!r} without its edge"
                ) from None
            flow._owned_pred().add(target)
            for source in before:
                if source not in pred[target] and target in succ.get(source, ()):
                    raise ValueError(
                        f"delta drops edge {source!r} -> {target!r} on one side only"
                    )
        for source, before in rewired:
            for target in itertools.chain(succ[source], before):
                if (target in succ[source]) != (source in pred.get(target, ())):
                    raise ValueError(
                        f"delta changes edge {source!r} -> {target!r} on one side only"
                    )
        flow.annotations = dict(data["annotations"])
        flow._lineage = tuple(str(item) for item in data["applied_patterns"])
        flow._dirty()
        flow.topological_ids()  # raises on a cycle; the memo is kept
        return flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ETLGraph(name={self.name!r}, operations={self.node_count}, "
            f"transitions={self.edge_count})"
        )
