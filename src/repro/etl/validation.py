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
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.etl.graph import ETLGraph, GraphDelta
from repro.etl.operations import OperationKind


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

    Instead of re-walking the whole flow, only the operations whose
    neighbourhood the delta touched (added/materialized operations and
    every endpoint of a changed transition) are re-checked; the parent's
    per-operation issues are carried over for untouched operations, and
    the cheap flow-wide invariants (emptiness, weak connectivity, source
    and sink existence) are recomputed.  The result contains exactly the
    same issues as ``validate_flow(flow)``, up to ordering, provided
    ``parent_issues`` is the parent's complete issue list.

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

    issues: list[ValidationIssue] = []
    issues.extend(_check_non_empty(flow))
    if flow.node_count:
        if not _still_connected(flow, delta, parent_issues):
            issues.append(_DISCONNECTED_ISSUE)
        if not flow.has_source():
            issues.append(_NO_SOURCE_ISSUE)
        if not flow.has_sink():
            issues.append(_NO_SINK_ISSUE)

    touched = delta.touched_operations(flow)
    removed = delta.ops_removed
    for issue in parent_issues:
        if issue.code in _GLOBAL_CODES:
            continue  # recomputed above
        if not issue.op_id or issue.op_id in removed or issue.op_id in touched:
            continue
        if issue.op_id not in flow:
            continue
        issues.append(issue)

    for op_id in sorted(touched):
        op = flow.operation(op_id)
        isolated = _isolated_issue(flow, op_id)
        if isolated is not None:
            issues.append(isolated)
        if flow.in_degree(op_id) == 0:
            entry_issue = _non_extract_source_issue(op)
            if entry_issue is not None:
                issues.append(entry_issue)
        if flow.out_degree(op_id) == 0:
            exit_issue = _non_load_sink_issue(op)
            if exit_issue is not None:
                issues.append(exit_issue)
        issues.extend(_arity_issues(flow, op_id))
        # Schema compatibility is attributed to the edge source, so each
        # touched operation re-checks its outgoing transitions; incoming
        # ones are covered by their own (touched or carried-over) source.
        for successor in flow.successors(op_id):
            schema_issue = _edge_schema_issue(flow, op_id, successor.op_id)
            if schema_issue is not None:
                issues.append(schema_issue)
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
    for op in flow.operations():
        isolated = _isolated_issue(flow, op.op_id)
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
        issues.extend(_arity_issues(flow, op.op_id))
    return issues


def _check_schemas(flow: ETLGraph) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for edge in flow.edges():
        issue = _edge_schema_issue(flow, edge.source, edge.target)
        if issue is not None:
            issues.append(issue)
    return issues


def _still_connected(
    flow: ETLGraph, delta: GraphDelta, parent_issues: Sequence[ValidationIssue]
) -> bool:
    """Weak connectivity of a derived flow, proven locally when possible.

    If the parent was connected, no operation was removed, and (a) every
    removed transition's endpoints are re-connected through the *added*
    transitions while (b) every added operation reaches a pre-existing
    one through them, the flow is still connected -- a proof that costs
    O(delta).  Any other shape (node removals, uncompensated edge
    removals, a disconnected parent) falls back to the full traversal.
    """
    if delta.ops_removed or any(i.code == "DISCONNECTED" for i in parent_issues):
        return flow.is_connected()
    if not delta.edges_removed and not delta.ops_added:
        # Only additions on a connected flow: still connected.
        return True

    adjacency: dict[str, list[str]] = {}
    for source, target in delta.edges_added:
        adjacency.setdefault(source, []).append(target)
        adjacency.setdefault(target, []).append(source)

    def reaches(start: str, accept) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if accept(node):
                return True
            for neighbour in adjacency.get(node, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return False

    for source, target in delta.edges_removed:
        if not reaches(source, lambda node, goal=target: node == goal):
            return flow.is_connected()
    added = delta.ops_added
    for op_id in added:
        if op_id in flow and not reaches(op_id, lambda node: node not in added):
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


def _isolated_issue(flow: ETLGraph, op_id: str) -> ValidationIssue | None:
    if flow.in_degree(op_id) == 0 and flow.out_degree(op_id) == 0 and flow.node_count > 1:
        return ValidationIssue(
            Severity.ERROR,
            "ISOLATED_OPERATION",
            f"operation {flow.operation(op_id).name!r} is not connected to the flow",
            op_id=op_id,
        )
    return None


def _non_extract_source_issue(op) -> ValidationIssue | None:
    if not op.kind.is_source and op.kind is not OperationKind.NOOP:
        return ValidationIssue(
            Severity.WARNING,
            "NON_EXTRACT_SOURCE",
            f"flow entry point {op.name!r} is a {op.kind.value} operation, "
            "not an extraction",
            op_id=op.op_id,
        )
    return None


def _non_load_sink_issue(op) -> ValidationIssue | None:
    if not op.kind.is_sink and op.kind not in (
        OperationKind.CHECKPOINT,
        OperationKind.NOOP,
    ):
        return ValidationIssue(
            Severity.WARNING,
            "NON_LOAD_SINK",
            f"flow exit point {op.name!r} is a {op.kind.value} operation, not a load",
            op_id=op.op_id,
        )
    return None


def _arity_issues(flow: ETLGraph, op_id: str) -> list[ValidationIssue]:
    op = flow.operation(op_id)
    in_degree = flow.in_degree(op_id)
    out_degree = flow.out_degree(op_id)
    issues: list[ValidationIssue] = []
    # EXTRACT_SAVEPOINT re-reads persisted intermediary data and may
    # legitimately sit in the middle of a flow (Fig. 2b of the paper).
    true_source = op.kind.is_source and op.kind is not OperationKind.EXTRACT_SAVEPOINT
    if true_source and in_degree > 0:
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                "SOURCE_WITH_INPUT",
                f"extraction operation {op.name!r} must not have incoming transitions",
                op_id=op_id,
            )
        )
    if op.kind.is_sink and out_degree > 0:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                "SINK_WITH_OUTPUT",
                f"load operation {op.name!r} has outgoing transitions",
                op_id=op_id,
            )
        )
    if op.kind is OperationKind.JOIN and in_degree < 2:
        issues.append(
            ValidationIssue(
                Severity.ERROR,
                "JOIN_ARITY",
                f"join operation {op.name!r} needs at least two inputs, has {in_degree}",
                op_id=op_id,
            )
        )
    if op.kind.is_router and out_degree < 2:
        issues.append(
            ValidationIssue(
                Severity.WARNING,
                "ROUTER_ARITY",
                f"routing operation {op.name!r} has fewer than two outputs "
                f"({out_degree})",
                op_id=op_id,
            )
        )
    return issues


def _edge_schema_issue(flow: ETLGraph, source: str, target: str) -> ValidationIssue | None:
    edge = flow.edge(source, target)
    source_schema = flow.operation(source).output_schema
    if len(edge.schema) and len(source_schema):
        if not source_schema.is_compatible_with(edge.schema):
            return ValidationIssue(
                Severity.WARNING,
                "SCHEMA_MISMATCH",
                "transition schema requires fields that the source operation "
                f"{source!r} does not produce",
                op_id=source,
            )
    return None
