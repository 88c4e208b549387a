"""Execute a compiled plan with error-routed recovery.

The executor walks the plan in topological order and hands each node to
the backend.  A node failure never aborts the DAG directly: it routes to
the recovery handler, which applies the same semantics the paper's
reliability patterns inject --

* **retry** -- allowed only when a ``CHECKPOINT`` covers the node (the
  ``AddCheckpoint`` pattern's recovery-point semantics): the persisted
  savepoint is replayed, the node re-runs, up to
  :attr:`RecoveryPolicy.max_retries` times.
* on exhaustion (or when no savepoint covers the node), the policy's
  ``on_exhaustion`` routing applies: ``"raise"`` surfaces an
  :class:`ExecutionError`, ``"skip"`` emits empty frames downstream, and
  ``"dead_letter"`` additionally captures the failing node's input rows
  in the report's dead-letter store.

Fault injection for tests rides on the operation config: a node with
``config={"fail_times": n}`` fails its first ``n`` attempts at the
executor level, so a patterned flow (checkpoint upstream) demonstrably
recovers where the un-patterned flow raises.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation
from repro.exec.backends import ETLBackend, LocalBackend
from repro.exec.compiler import CompiledNode, ExecutablePlan, compile_flow
from repro.exec.data import generate_source_columns
from repro.exec.frame import frame_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

logger = logging.getLogger("repro.exec.executor")

__all__ = [
    "ExecutionError",
    "FaultInjected",
    "RecoveryPolicy",
    "NodeRun",
    "ExecutionReport",
    "ExecutionContext",
    "FlowExecutor",
]

#: Valid ``RecoveryPolicy.on_exhaustion`` routings.
EXHAUSTION_ROUTES = ("raise", "skip", "dead_letter")


class ExecutionError(RuntimeError):
    """A node failed and the recovery policy routed the failure out."""


class FaultInjected(RuntimeError):
    """The test-only fault raised for ``config={"fail_times": n}`` nodes."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """How node failures are routed (the executable reliability semantics).

    ``max_retries`` bounds savepoint-gated re-execution; ``on_exhaustion``
    picks the terminal routing once retries are spent (or unavailable
    because no checkpoint covers the node).
    """

    max_retries: int = 2
    on_exhaustion: str = "raise"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.on_exhaustion not in EXHAUSTION_ROUTES:
            raise ValueError(
                f"on_exhaustion must be one of {EXHAUSTION_ROUTES}, "
                f"got {self.on_exhaustion!r}"
            )


@dataclass
class NodeRun:
    """Execution record of one node (one row of the report)."""

    op_id: str
    kind: str
    status: str  # "ok" | "recovered" | "skipped" | "dead_letter"
    attempts: int
    rows_in: int
    rows_out: int
    elapsed_ms: float
    error: str | None = None
    savepoint_used: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "status": self.status,
            "attempts": self.attempts,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "error": self.error,
            "savepoint_used": self.savepoint_used,
        }


@dataclass
class ExecutionReport:
    """The outcome of one flow execution."""

    flow_name: str
    backend: str
    node_runs: list[NodeRun] = field(default_factory=list)
    outputs: dict[str, dict[str, list]] = field(default_factory=dict)
    dead_letters: dict[str, dict[str, Any]] = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def statuses(self) -> dict[str, str]:
        """Final status per executed node."""
        return {run.op_id: run.status for run in self.node_runs}

    @property
    def rows_loaded(self) -> int:
        """Total rows across all load outputs."""
        total = 0
        for columns in self.outputs.values():
            total += max((len(v) for v in columns.values()), default=0)
        return total

    def frame_bytes(self) -> dict[str, str]:
        """Deterministic digest per load output (the determinism currency)."""
        return {op_id: frame_bytes(columns) for op_id, columns in sorted(self.outputs.items())}

    def recovered_nodes(self) -> list[str]:
        return [r.op_id for r in self.node_runs if r.status == "recovered"]

    def to_dict(self) -> dict[str, Any]:
        return {
            "flow": self.flow_name,
            "backend": self.backend,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "rows_loaded": self.rows_loaded,
            "outputs": {op_id: fb for op_id, fb in self.frame_bytes().items()},
            "dead_letters": sorted(self.dead_letters),
            "nodes": [run.to_dict() for run in self.node_runs],
        }


class ExecutionContext:
    """What a backend may ask the harness for while running one node.

    Source materialization, savepoint persistence (checkpoints serialize
    their frame through JSON -- real I/O-shaped work, which is what makes
    ``AddCheckpoint`` measurably non-free), load capture, router fanout,
    input operations and parameter bindings.
    """

    def __init__(
        self,
        plan: ExecutablePlan,
        data_seed: int = 7,
        params: Mapping[str, Any] | None = None,
    ) -> None:
        self.plan = plan
        self.data_seed = data_seed
        self.params: dict[str, Any] = dict(params or {})
        self.outputs: dict[str, dict[str, list]] = {}
        self._savepoints: dict[str, str] = {}

    # -- backend-facing API ---------------------------------------------

    def source_columns(self, operation: Operation) -> dict[str, list]:
        """Materialized sampled columns for an extraction operation."""
        return generate_source_columns(operation, seed=self.data_seed)

    def record_savepoint(self, operation: Operation, columns: Mapping[str, list]) -> None:
        """Persist a checkpoint frame (JSON-serialized, like a savepoint file)."""
        name = operation.config.get("savepoint", operation.op_id)
        self._savepoints[str(name)] = json.dumps(
            {k: list(v) for k, v in columns.items()}, default=str
        )

    def load_savepoint(self, name: str) -> dict[str, list] | None:
        """Re-read a persisted savepoint (None when never written)."""
        payload = self._savepoints.get(str(name))
        return None if payload is None else json.loads(payload)

    def record_output(self, operation: Operation, columns: Mapping[str, list]) -> None:
        """Capture the frame a load operation delivered."""
        self.outputs[operation.op_id] = {k: list(v) for k, v in columns.items()}

    def fanout(self, operation: Operation) -> int:
        """How many output frames a router node must produce."""
        node = self.plan.nodes.get(operation.op_id)
        return node.fanout if node is not None else 1

    def input_operation(self, operation: Operation, index: int) -> Operation | None:
        """The operation feeding input slot ``index`` of a node."""
        node = self.plan.nodes.get(operation.op_id)
        if node is None or index >= len(node.inputs):
            return None
        return self.plan.nodes[node.inputs[index][0]].operation

    # -- executor-facing API --------------------------------------------

    def savepoint_for(self, op_id: str) -> str | None:
        """Name of the persisted savepoint covering a node, if written."""
        cover = self.plan.savepoint_cover.get(op_id)
        if cover is None:
            return None
        name = str(self.plan.nodes[cover].operation.config.get("savepoint", cover))
        return name if name in self._savepoints else None


class FlowExecutor:
    """Run compiled plans (or flows) on a backend with recovery routing."""

    def __init__(
        self,
        backend: ETLBackend | None = None,
        policy: RecoveryPolicy | None = None,
        data_seed: int = 7,
        params: Mapping[str, Any] | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.backend = backend if backend is not None else LocalBackend()
        self.policy = policy or RecoveryPolicy()
        self.data_seed = data_seed
        self.params = dict(params or {})
        # Observability only: per-node exec.* counters and timings.
        self.metrics_registry = registry

    def execute(self, flow_or_plan: ETLGraph | ExecutablePlan) -> ExecutionReport:
        """Execute a flow end to end and return its report."""
        if isinstance(flow_or_plan, ExecutablePlan):
            plan = flow_or_plan
        else:
            plan = compile_flow(flow_or_plan, self.backend)
        context = ExecutionContext(plan, data_seed=self.data_seed, params=self.params)
        report = ExecutionReport(flow_name=plan.flow.name, backend=self.backend.name)
        frames: dict[tuple[str, int], Any] = {}

        started = time.perf_counter()
        for op_id in plan.order:
            node = plan.nodes[op_id]
            inputs = [frames[(pred, slot)] for pred, slot in node.inputs]
            run, result = self._run_node(node, inputs, context, report.dead_letters)
            report.node_runs.append(run)
            if isinstance(result, list):
                for slot, frame in enumerate(result):
                    frames[(op_id, slot)] = frame
            else:
                frames[(op_id, 0)] = result
        report.elapsed_ms = (time.perf_counter() - started) * 1000.0
        report.outputs = context.outputs
        return report

    # ------------------------------------------------------------------

    def _observe_run(self, run: NodeRun) -> None:
        """Mirror one node's outcome into the metrics registry and the log."""
        registry = self.metrics_registry
        if registry is not None:
            registry.counter(f"exec.nodes_{run.status}").inc()
            if run.attempts > 1:
                registry.counter("exec.retries").inc(run.attempts - 1)
            registry.histogram("exec.node_seconds").observe(run.elapsed_ms / 1000.0)
        if run.status in ("skipped", "dead_letter"):
            logger.warning(
                "node %s %s after %d attempt(s): %s",
                run.op_id, run.status, run.attempts, run.error,
            )
        elif run.status == "recovered":
            logger.info(
                "node %s recovered on attempt %d (savepoint %s)",
                run.op_id, run.attempts, run.savepoint_used,
            )

    def _run_node(
        self,
        node: CompiledNode,
        inputs: list,
        context: ExecutionContext,
        dead_letters: dict[str, dict[str, Any]],
    ) -> tuple[NodeRun, Any]:
        operation = node.operation
        fail_times = int(operation.config.get("fail_times", 0) or 0)
        rows_in = sum(self.backend.row_count(frame) for frame in inputs)
        savepoint = context.savepoint_for(operation.op_id)
        max_attempts = 1 + (self.policy.max_retries if savepoint is not None else 0)

        attempts = 0
        last_error: Exception | None = None
        started = time.perf_counter()
        while attempts < max_attempts:
            attempts += 1
            try:
                if attempts <= fail_times:
                    raise FaultInjected(
                        f"injected fault in {operation.op_id!r} "
                        f"(attempt {attempts}/{fail_times})"
                    )
                result = self.backend.run_node(operation, inputs, context)
                elapsed = (time.perf_counter() - started) * 1000.0
                run = NodeRun(
                    op_id=operation.op_id,
                    kind=operation.kind.value,
                    status="ok" if attempts == 1 else "recovered",
                    attempts=attempts,
                    rows_in=rows_in,
                    rows_out=self._count_rows(result),
                    elapsed_ms=elapsed,
                    error=str(last_error) if last_error is not None else None,
                    savepoint_used=savepoint if attempts > 1 else None,
                )
                self._observe_run(run)
                return run, result
            except Exception as error:  # noqa: BLE001 - every failure routes to recovery
                last_error = error
                if attempts < max_attempts:
                    # Recovery-point replay: re-read the persisted
                    # savepoint bytes before re-running, like a restart
                    # from the checkpoint file would.
                    context.load_savepoint(savepoint)  # type: ignore[arg-type]
                    continue
                break

        # Retries exhausted (or never available): terminal routing.
        elapsed = (time.perf_counter() - started) * 1000.0
        assert last_error is not None
        if self.policy.on_exhaustion == "raise":
            raise ExecutionError(
                f"operation {operation.op_id!r} ({operation.kind.value}) failed "
                f"after {attempts} attempt(s): {last_error}"
            ) from last_error

        status = "skipped" if self.policy.on_exhaustion == "skip" else "dead_letter"
        if status == "dead_letter":
            first_input = (
                self.backend.to_columns(inputs[0]) if inputs else {}
            )
            dead_letters[operation.op_id] = {
                "error": str(last_error),
                "rows_in": rows_in,
                "columns": sorted(first_input),
            }
        empty = self.backend.from_columns({})
        result = [empty] * node.fanout if node.fanout > 1 else empty
        run = NodeRun(
            op_id=operation.op_id,
            kind=operation.kind.value,
            status=status,
            attempts=attempts,
            rows_in=rows_in,
            rows_out=0,
            elapsed_ms=elapsed,
            error=str(last_error),
            savepoint_used=savepoint,
        )
        self._observe_run(run)
        return run, result

    def _count_rows(self, result: Any) -> int:
        if isinstance(result, list):
            return sum(self.backend.row_count(frame) for frame in result)
        return self.backend.row_count(result)
