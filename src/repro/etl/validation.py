"""Structural and semantic validation of ETL flows.

Pattern application must never break the flow: after every FCP insertion
the planner re-validates the resulting graph.  Validation covers
structure (acyclicity is enforced at insertion time; connectivity, sources
and sinks are checked here), router/merger arity versus configuration, and
schema compatibility along transitions.

Two entry points are provided.  :func:`validate_flow` is the oracle: it
walks the whole flow.  :func:`validate_delta` exploits the structured
:class:`~repro.etl.graph.GraphDelta` a flow copy records against its
parent: given the parent's issue list it re-checks only the
operations whose neighbourhood the delta touched, carries the remaining
parent issues over, and refreshes the cheap global invariants -- so
validating one pattern application costs O(delta), not O(flow).  Both
functions produce the same issue *set* for any flow derived from a
validated parent (the property suite asserts this agreement).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.etl.graph import Edge, ETLGraph, GraphDelta
from repro.etl.operations import Operation, OperationKind


class Severity(enum.Enum):
    """Severity of a validation issue."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    """A single problem discovered while validating a flow."""

    severity: Severity
    code: str
    message: str
    op_id: str = ""

    def __str__(self) -> str:
        location = f" [{self.op_id}]" if self.op_id else ""
        return f"{self.severity.value.upper()} {self.code}{location}: {self.message}"


class ValidationError(Exception):
    """Raised when a flow fails validation with at least one error."""

    def __init__(self, issues: Iterable[ValidationIssue]):
        self.issues = [i for i in issues if i.severity is Severity.ERROR]
        message = "; ".join(str(i) for i in self.issues) or "flow validation failed"
        super().__init__(message)


def validate_flow(flow: ETLGraph, raise_on_error: bool = False) -> list[ValidationIssue]:
    """Validate an ETL flow and return the list of issues found.

    Parameters
    ----------
    flow:
        The flow to validate.
    raise_on_error:
        When true, a :class:`ValidationError` is raised if any issue of
        severity ``ERROR`` is present.
    """
    issues: list[ValidationIssue] = []
    issues.extend(_check_non_empty(flow))
    if flow.node_count:
        issues.extend(_check_connectivity(flow))
        issues.extend(_check_sources_and_sinks(flow))
        issues.extend(_check_arities(flow))
        issues.extend(_check_schemas(flow))
    if raise_on_error and any(i.severity is Severity.ERROR for i in issues):
        raise ValidationError(issues)
    return issues


def is_valid(flow: ETLGraph) -> bool:
    """Whether the flow has no validation errors (warnings are tolerated)."""
    return not has_errors(validate_flow(flow))


def has_errors(issues: Iterable[ValidationIssue]) -> bool:
    """Whether an issue list contains at least one ``ERROR``-severity issue.

    The validity criterion shared by the whole-flow oracle and the
    incremental paths: a flow is adoptable iff its issue list -- however
    it was obtained (:func:`validate_flow`, one :func:`validate_delta`
    call, or a chain of them along a prefix of pattern applications) --
    has no errors.  Warnings never disqualify a flow.
    """
    return any(i.severity is Severity.ERROR for i in issues)


def validate_delta(
    flow: ETLGraph,
    delta: GraphDelta,
    parent_issues: Sequence[ValidationIssue] = (),
) -> list[ValidationIssue]:
    """Validate a flow derived from a validated parent by ``delta``.

    Instead of re-walking the whole flow, only the checks the delta can
    change are re-run, and the parent's other issues are carried over.
    The result contains exactly the same issues as ``validate_flow(flow)``
    (the same multiset, up to ordering), provided ``parent_issues`` is
    the parent's complete issue list.

    Which checks re-run depends on the shape of the change:

    * an annotation-only delta re-runs nothing;
    * an added or replaced operation, and one whose in- or out-degree
      changed, gets every per-operation check (isolation, entry and exit
      kind, arity, and the schemas of its outgoing transitions);
    * the source of an added or modified transition whose degrees did
      not change (a degree-neutral rewire, such as interposing an
      operation on one of its outputs) re-checks only its outgoing
      schemas; the target of such a rewire re-checks nothing, since
      schema issues belong to the transition's source;
    * connectivity is proven from the delta where possible (see
      :func:`_still_connected`), with a walk of the flow as the fallback;
    * a source and a sink exist in every non-empty flow without cycles,
      so their existence is only re-walked when the parent lacked one.

    A change across one operation (to or from an empty or a single
    operation flow) is validated whole: emptiness and isolation hinge on
    the operation count there.

    Because the output is again a complete issue list, calls chain: the
    alternative generator's prefix cache stores the issue list of each
    intermediate flow of a pattern combination and *resumes* validation
    from the deepest cached prefix, so extending ``(a, b)`` to
    ``(a, b, c)`` validates only ``c``'s delta against the cached
    ``(a, b)`` issues.

    Parameters
    ----------
    flow:
        The derived flow (typically a COW child carrying ``delta``).
    delta:
        The recorded difference between the parent and ``flow``.
    parent_issues:
        The parent flow's issues, as returned by :func:`validate_flow` or
        by a previous :func:`validate_delta` in a chain of pattern
        applications.
    """
    if not delta.is_structural():
        # Annotation-only deltas (graph-level patterns) cannot change any
        # validation outcome; the parent's issues are the flow's issues.
        return list(parent_issues)
    node_count = flow.node_count
    ops_added, ops_removed = delta.ops_added, delta.ops_removed
    if node_count < 2 or node_count - len(ops_added) + len(ops_removed) < 2:
        return validate_flow(flow)

    # Net degree changes, per operation and side, from the transitions.
    in_change: dict[str, int] = {}
    out_change: dict[str, int] = {}
    for source, target in delta.edges_added:
        out_change[source] = out_change.get(source, 0) + 1
        in_change[target] = in_change.get(target, 0) + 1
    for source, target in delta.edges_removed:
        out_change[source] = out_change.get(source, 0) - 1
        in_change[target] = in_change.get(target, 0) - 1
    full = set(ops_added)
    full.update(delta.ops_modified)
    for changes in (in_change, out_change):
        for op_id, change in changes.items():
            if change:
                full.add(op_id)
    rewired = {
        source
        for source, _ in itertools.chain(delta.edges_added, delta.edges_modified)
        if source not in full and source in flow
    }

    issues: list[ValidationIssue] = []
    for issue in parent_issues:
        op_id = issue.op_id
        if not op_id or issue.code in _GLOBAL_CODES:
            continue  # recomputed below
        if op_id in full or op_id not in flow:
            continue
        if op_id in rewired and issue.code == "SCHEMA_MISMATCH":
            continue
        issues.append(issue)

    for op_id in sorted(full):
        if op_id not in flow:
            continue  # removed
        op = flow.operation(op_id)
        in_degree = flow.in_degree(op_id)
        out_edges = flow.out_edges(op_id)
        out_degree = len(out_edges)
        if not (in_degree or out_degree):  # isolated: the flow has two operations or more
            issues.append(_isolated_issue(op, in_degree, out_degree, node_count))
        if not in_degree:
            entry_issue = _non_extract_source_issue(op)
            if entry_issue is not None:
                issues.append(entry_issue)
        if not out_degree:
            exit_issue = _non_load_sink_issue(op)
            if exit_issue is not None:
                issues.append(exit_issue)
        if op.kind._value_ in _ARITY_KINDS:
            issues.extend(_arity_issues(op, in_degree, out_degree))
        _extend_schema_issues(issues, op, out_edges)
    for op_id in sorted(rewired):
        _extend_schema_issues(issues, flow.operation(op_id), flow.out_edges(op_id))

    codes = {issue.code for issue in parent_issues} if parent_issues else ()
    if not _still_connected(flow, delta, "DISCONNECTED" in codes):
        issues.append(_DISCONNECTED_ISSUE)
    # A non-empty flow without cycles (the graph refuses them) always has
    # a source and a sink, so only a parent that lacked one is re-walked.
    if "NO_SOURCE" in codes and not flow.has_source():
        issues.append(_NO_SOURCE_ISSUE)
    if "NO_SINK" in codes and not flow.has_sink():
        issues.append(_NO_SINK_ISSUE)
    return issues


def _check_non_empty(flow: ETLGraph) -> list[ValidationIssue]:
    if flow.node_count == 0:
        return [
            ValidationIssue(
                Severity.ERROR, "EMPTY_FLOW", "the flow contains no operations"
            )
        ]
    return []


def _check_connectivity(flow: ETLGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    if not flow.is_connected():
        issues.append(_DISCONNECTED_ISSUE)
    node_count = flow.node_count
    for op in flow.operations():
        isolated = _isolated_issue(
            op, flow.in_degree(op.op_id), flow.out_degree(op.op_id), node_count
        )
        if isolated is not None:
            issues.append(isolated)
    return issues


def _check_sources_and_sinks(flow: ETLGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    if not flow.sources():
        issues.append(_NO_SOURCE_ISSUE)
    if not flow.sinks():
        issues.append(_NO_SINK_ISSUE)
    for op in flow.sources():
        issue = _non_extract_source_issue(op)
        if issue is not None:
            issues.append(issue)
    for op in flow.sinks():
        issue = _non_load_sink_issue(op)
        if issue is not None:
            issues.append(issue)
    return issues


def _check_arities(flow: ETLGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for op in flow.operations():
        issues.extend(_arity_issues(op, flow.in_degree(op.op_id), flow.out_degree(op.op_id)))
    return issues


def _check_schemas(flow: ETLGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for edge in flow.edges():
        issue = _edge_schema_issue(flow.operation(edge.source), edge)
        if issue is not None:
            issues.append(issue)
    return issues


def _still_connected(flow: ETLGraph, delta: GraphDelta, parent_disconnected: bool) -> bool:
    """Weak connectivity of a derived flow, proven locally when possible.

    The parent was connected.  Through the *added* transitions, (a) the
    two surviving endpoints of every removed transition must still be
    joined, (b) all surviving neighbours of the removed operations must
    be joined to each other, and (c) every added operation must be
    joined to a pre-existing one.  Then any two operations the parent
    joined are still joined: each removed transition on the parent's
    path between them is bridged by (a), each stretch through removed
    operations by (b), and added operations hang on by (c).  The joins
    are one union-find pass over the added transitions, so the proof
    costs O(delta); any other shape (a disconnected parent, a bridge the
    added transitions do not provide) falls back to the full traversal.
    """
    if parent_disconnected:
        return flow.is_connected()
    ops_added = delta.ops_added
    edges_removed = delta.edges_removed
    if not edges_removed and not ops_added:
        # Only additions on a connected flow (an operation removed
        # without transitions was isolated, so the parent would not
        # have been connected): still connected.
        return True

    # ``link`` maps an operation to another of its component; a root
    # maps nowhere.
    link: dict[str, str] = {}
    for source, target in delta.edges_added:
        while source in link:
            source = link[source]
        while target in link:
            target = link[target]
        if source != target:
            link[source] = target

    def root(node: str) -> str:
        while node in link:
            node = link[node]
        return node

    boundary = None
    for source, target in edges_removed:
        if source in flow:
            if target in flow:
                if root(source) != root(target):
                    return flow.is_connected()
                continue
            end = root(source)
        elif target in flow:
            end = root(target)
        else:
            continue
        if boundary is None:
            boundary = end
        elif end != boundary:
            return flow.is_connected()
    if ops_added:
        anchored = {
            root(node)
            for edge in delta.edges_added
            for node in edge
            if node not in ops_added
        }
        for op_id in ops_added:
            if op_id in flow and root(op_id) not in anchored:
                return flow.is_connected()
    return True


# ---------------------------------------------------------------------------
# Per-element checks (shared between the whole-flow oracle and delta
# validation, so the two can never drift apart)
# ---------------------------------------------------------------------------

_DISCONNECTED_ISSUE = ValidationIssue(
    Severity.ERROR,
    "DISCONNECTED",
    "the flow is split into several disconnected components",
)
_NO_SOURCE_ISSUE = ValidationIssue(
    Severity.ERROR, "NO_SOURCE", "the flow has no source operation"
)
_NO_SINK_ISSUE = ValidationIssue(
    Severity.ERROR, "NO_SINK", "the flow has no sink operation"
)

#: Codes of flow-wide issues that delta validation always recomputes
#: instead of carrying over from the parent.
_GLOBAL_CODES = frozenset({"EMPTY_FLOW", "DISCONNECTED", "NO_SOURCE", "NO_SINK"})

# Operation-kind tables, keyed by each kind's ``_value_`` (a plain string
# attribute): membership costs one cached string hash, where the
# ``OperationKind`` properties each run a Python-level function.
_ENTRY_KINDS = frozenset(
    kind._value_ for kind in OperationKind if kind.is_source or kind is OperationKind.NOOP
)
_EXIT_KINDS = frozenset(
    kind._value_
    for kind in OperationKind
    if kind.is_sink or kind in (OperationKind.CHECKPOINT, OperationKind.NOOP)
)
# EXTRACT_SAVEPOINT re-reads persisted intermediary data and may
# legitimately sit in the middle of a flow (Fig. 2b of the paper).
_INPUTLESS_KINDS = frozenset(
    kind._value_
    for kind in OperationKind
    if kind.is_source and kind is not OperationKind.EXTRACT_SAVEPOINT
)
_SINK_KINDS = frozenset(kind._value_ for kind in OperationKind if kind.is_sink)
_ROUTER_KINDS = frozenset(kind._value_ for kind in OperationKind if kind.is_router)
_JOIN_KIND = OperationKind.JOIN._value_
#: The kinds :func:`_arity_issues` can flag.
_ARITY_KINDS = _INPUTLESS_KINDS | _SINK_KINDS | _ROUTER_KINDS | {_JOIN_KIND}


def _isolated_issue(
    op: Operation, in_degree: int, out_degree: int, node_count: int
) -> ValidationIssue | None:
    if not (in_degree or out_degree) and node_count > 1:
        return ValidationIssue(
            Severity.ERROR,
            "ISOLATED_OPERATION",
            f"operation {op.name!r} is not connected to the flow",
            op_id=op.op_id,
        )
    return None


def _non_extract_source_issue(op: Operation) -> ValidationIssue | None:
    if op.kind._value_ not in _ENTRY_KINDS:
        return ValidationIssue(
            Severity.WARNING,
            "NON_EXTRACT_SOURCE",
            f"flow entry point {op.name!r} is a {op.kind.value} operation, "
            "not an extraction",
            op_id=op.op_id,
        )
    return None


def _non_load_sink_issue(op: Operation) -> ValidationIssue | None:
    if op.kind._value_ not in _EXIT_KINDS:
        return ValidationIssue(
            Severity.WARNING,
            "NON_LOAD_SINK",
            f"flow exit point {op.name!r} is a {op.kind.value} operation, not a load",
            op_id=op.op_id,
        )
    return None


def _arity_issues(op: Operation, in_degree: int, out_degree: int) -> list[ValidationIssue]:
    code = op.kind._value_
    issues: list[ValidationIssue] = []
    if in_degree and code in _INPUTLESS_KINDS:
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                "SOURCE_WITH_INPUT",
                f"extraction operation {op.name!r} must not have incoming transitions",
                op_id=op.op_id,
            )
        )
    if out_degree and code in _SINK_KINDS:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                "SINK_WITH_OUTPUT",
                f"load operation {op.name!r} has outgoing transitions",
                op_id=op.op_id,
            )
        )
    if in_degree < 2 and code == _JOIN_KIND:
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                "JOIN_ARITY",
                f"join operation {op.name!r} needs at least two inputs, has {in_degree}",
                op_id=op.op_id,
            )
        )
    if out_degree < 2 and code in _ROUTER_KINDS:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                "ROUTER_ARITY",
                f"routing operation {op.name!r} has fewer than two outputs "
                f"({out_degree})",
                op_id=op.op_id,
            )
        )
    return issues


def _extend_schema_issues(
    issues: list[ValidationIssue], op: Operation, out_edges: Iterable[Edge]
) -> None:
    """Append the schema issues of ``out_edges``, the transitions leaving ``op``."""
    for edge in out_edges:
        issue = _edge_schema_issue(op, edge)
        if issue is not None:
            issues.append(issue)


def _edge_schema_issue(source: Operation, edge: Edge) -> ValidationIssue | None:
    """The schema issue of transition ``edge``, attributed to its ``source`` operation.

    A transition carrying its source's own schema object is compatible
    with it (field names are unique), so that common case skips the
    compatibility memo.
    """
    schema = edge.schema
    source_schema = source.output_schema
    if schema is not source_schema and schema.fields and source_schema.fields:
        if not source_schema.is_compatible_with(schema):
            return ValidationIssue(
                Severity.WARNING,
                "SCHEMA_MISMATCH",
                "transition schema requires fields that the source operation "
                f"{edge.source!r} does not produce",
                op_id=edge.source,
            )
    return None
