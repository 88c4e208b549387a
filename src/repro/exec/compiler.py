"""Compile an :class:`~repro.etl.graph.ETLGraph` into an executable DAG.

The flow model is declarative -- operations plus data edges.  Execution
needs three things the model does not spell out: a topological node
order, for each node the *slot* of each input (a router's successors
each consume a different one of its outputs, matched by edge insertion
order), and the recovery structure (which savepoint, if any, covers a
node -- the nearest ``CHECKPOINT`` on a path upstream).  Compilation
resolves all three once, and validates up front that every operation
kind is supported by the chosen backend, so execution never discovers an
unimplementable node halfway through a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.exec.backends import ETLBackend, LocalBackend

__all__ = ["CompileError", "CompiledNode", "ExecutablePlan", "compile_flow"]

#: Kinds whose handler returns one output frame *per outgoing edge*.
ROUTER_KINDS: frozenset[OperationKind] = frozenset(
    {
        OperationKind.SPLIT,
        OperationKind.ROUTER,
        OperationKind.PARTITION,
        OperationKind.REPLICATE,
    }
)


class CompileError(ValueError):
    """Raised when a flow cannot be compiled for a backend."""


@dataclass
class CompiledNode:
    """One executable node: its operation plus resolved input wiring.

    ``inputs`` lists ``(predecessor op_id, output slot)`` pairs in edge
    insertion order -- the order handlers receive their frames in.  For a
    non-router predecessor the slot is always 0; for a router it is the
    position of this node among the router's successors.  ``fanout`` is
    the number of output frames the node must produce (1 for ordinary
    operations, one per outgoing edge for routers).
    """

    operation: Operation
    inputs: list[tuple[str, int]] = field(default_factory=list)
    fanout: int = 1

    @property
    def op_id(self) -> str:
        return self.operation.op_id


@dataclass
class ExecutablePlan:
    """A compiled flow, ready for a backend to execute.

    Attributes
    ----------
    flow:
        The source graph (not copied; the executor never mutates it).
    order:
        Topological execution order of operation identifiers.
    nodes:
        Compiled node per operation identifier.
    savepoint_cover:
        For each node, the ``op_id`` of the nearest upstream
        ``CHECKPOINT`` operation on some path into it (or ``None``).
        The executor's retry recovery is gated on this: the paper's
        recovery-point pattern only makes a node retryable once a
        persisted savepoint exists upstream.
    """

    flow: ETLGraph
    order: list[str]
    nodes: dict[str, CompiledNode]
    savepoint_cover: dict[str, str | None]

    @property
    def sink_ids(self) -> list[str]:
        """Identifiers of the terminal (load) operations, in order."""
        return [op_id for op_id in self.order if self.flow.out_degree(op_id) == 0]

    def node(self, op_id: str) -> CompiledNode:
        return self.nodes[op_id]


def compile_flow(flow: ETLGraph, backend: ETLBackend | None = None) -> ExecutablePlan:
    """Compile a flow for a backend (default: the local reference backend).

    Raises :class:`CompileError` -- listing *all* offending operations,
    not just the first -- when the flow is empty or contains operation
    kinds the backend has no handler for (``PIVOT`` is the deliberate
    example: no backend implements it).
    """
    if len(flow) == 0:
        raise CompileError(f"flow {flow.name!r} has no operations to compile")
    backend = backend or LocalBackend()

    unsupported = sorted(
        f"{op.op_id} ({op.kind.value})"
        for op in flow.operations()
        if not backend.supports(op.kind)
    )
    if unsupported:
        raise CompileError(
            f"backend {backend.name!r} cannot execute flow {flow.name!r}: "
            f"unsupported operations: {', '.join(unsupported)}"
        )

    # The flow's memoized topological order: the simulator lowers the
    # same one, so execution and estimation never sort a structure twice.
    order = list(flow.topological_ids())

    nodes: dict[str, CompiledNode] = {}
    for op_id in order:
        operation = flow.operation(op_id)
        inputs: list[tuple[str, int]] = []
        for predecessor_id in flow.predecessor_ids(op_id):
            if flow.operation(predecessor_id).kind in ROUTER_KINDS:
                slot = flow.successor_ids(predecessor_id).index(op_id)
            else:
                slot = 0
            inputs.append((predecessor_id, slot))
        fanout = (
            max(1, flow.out_degree(op_id)) if operation.kind in ROUTER_KINDS else 1
        )
        nodes[op_id] = CompiledNode(operation=operation, inputs=inputs, fanout=fanout)

    # Nearest upstream checkpoint, propagated in topological order: a
    # checkpoint covers itself and everything downstream until another
    # checkpoint takes over.
    savepoint_cover: dict[str, str | None] = {}
    for op_id in order:
        operation = nodes[op_id].operation
        if operation.kind is OperationKind.CHECKPOINT:
            savepoint_cover[op_id] = op_id
            continue
        cover = None
        for predecessor_id, _ in nodes[op_id].inputs:
            cover = savepoint_cover.get(predecessor_id)
            if cover is not None:
                break
        savepoint_cover[op_id] = cover

    return ExecutablePlan(flow=flow, order=order, nodes=nodes, savepoint_cover=savepoint_cover)
