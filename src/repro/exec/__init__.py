"""Executable flows: compile :class:`~repro.etl.graph.ETLGraph` and run it.

The planner's output is a *plan*; this package makes it runnable.  A
flow compiles (:func:`compile_flow`) into an executable DAG, an
:class:`ETLBackend` (the pure-Python :class:`LocalBackend` by default)
runs it under a :class:`FlowExecutor` with error-routed recovery, and
:func:`execute_top_k` closes the simulated-vs-measured loop by executing
the planner's best alternatives on sampled data and scoring the
simulator's ranking with Spearman correlation.

See ``docs/execution.md`` for the backend protocol and the calibration
workflow.
"""

from repro.exec.backends import ETLBackend, LocalBackend, UnsupportedOperationError
from repro.exec.compiler import CompileError, CompiledNode, ExecutablePlan, compile_flow
from repro.exec.executor import (
    EXHAUSTION_ROUTES,
    ExecutionError,
    ExecutionReport,
    FaultInjected,
    FlowExecutor,
    NodeRun,
    RecoveryPolicy,
)
from repro.exec.frame import Frame, canonical_rows, frame_bytes
from repro.exec.measured import (
    CalibrationReport,
    MeasuredRun,
    execute_top_k,
    spearman_correlation,
)

__all__ = [
    "ETLBackend",
    "LocalBackend",
    "UnsupportedOperationError",
    "CompileError",
    "CompiledNode",
    "ExecutablePlan",
    "compile_flow",
    "EXHAUSTION_ROUTES",
    "ExecutionError",
    "ExecutionReport",
    "FaultInjected",
    "FlowExecutor",
    "NodeRun",
    "RecoveryPolicy",
    "Frame",
    "canonical_rows",
    "frame_bytes",
    "CalibrationReport",
    "MeasuredRun",
    "execute_top_k",
    "spearman_correlation",
]
