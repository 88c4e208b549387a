"""A graph-walking reference for :class:`repro.simulator.engine.ETLSimulator`.

The simulator compiles a flow once against a memo of interned
per-operation states and shared random draws, and memoizes each failing
operation's recovery plan.  This reference does none of that: every run
walks the graph in networkx's topological order through the
:class:`ETLGraph` accessors, draws from its own generator, gathers inputs
per predecessor, draws one uniform per operation through
:meth:`SyntheticDataGenerator.random`, recomputes the critical path with
a second walk, and answers every failure with fresh networkx ancestor
and distance queries (see ``tests/reference_graph.py``).  It shares only the
data generator, the resource model, the trace records and the model
constants with the simulator, so a disagreement points at the
compilation or the memo.
"""

from __future__ import annotations

from typing import Mapping

import networkx as nx

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.simulator.datagen import SourceProfile, SyntheticDataGenerator
from repro.simulator.engine import (
    _ACCESS_CONTROL_OVERHEAD,
    _CROSSCHECK_CORRECTION,
    _ENCRYPTION_OVERHEAD,
    _PARTITIONING_KINDS,
    SimulationConfig,
)
from repro.simulator.failures import FailureEvent
from repro.simulator.resources import ResourceModel, ResourceTier
from repro.simulator.traces import FlowTrace, OperationTrace, TraceArchive
from tests.reference_graph import (
    reference_digraph,
    reference_distance_from_sources,
    reference_topological_ids,
)


def reference_topological_order(flow: ETLGraph) -> list[Operation]:
    """The flow's operations in networkx's topological order, sorted afresh."""
    return [flow.operation(op_id) for op_id in reference_topological_ids(flow)]


def reference_lost_work(
    flow: ETLGraph, failed_op: str, operation_times_ms: Mapping[str, float]
) -> FailureEvent:
    """The work lost when ``failed_op`` fails, from fresh networkx queries."""
    graph = reference_digraph(flow)
    checkpoints = {op.op_id for op in flow.operations_of_kind(OperationKind.CHECKPOINT)}
    upstream = nx.ancestors(graph, failed_op)
    chargeable = set(upstream) | {failed_op}
    recovered_from = ""
    upstream_checkpoints = upstream & checkpoints
    if upstream_checkpoints:
        nearest = max(
            upstream_checkpoints,
            key=lambda cp: (reference_distance_from_sources(graph, cp), cp),
        )
        recovered_from = nearest
        protected = nx.ancestors(graph, nearest) | {nearest}
        chargeable -= protected
    lost = sum(operation_times_ms.get(op_id, 0.0) for op_id in sorted(chargeable))
    return FailureEvent(op_id=failed_op, lost_work_ms=lost, recovered_from=recovered_from)


class ReferenceSimulator:
    """Simulates executions of a single ETL flow by walking its graph per run."""

    def __init__(self, flow: ETLGraph, config: SimulationConfig | None = None) -> None:
        self.flow = flow
        self.config = config or SimulationConfig()
        self._generator = SyntheticDataGenerator(
            seed=self.config.seed, jitter=self.config.volume_jitter
        )
        tier = flow.annotations.get("resource_tier")
        if tier:
            self._resources = ResourceModel.from_tier(
                ResourceTier(tier) if isinstance(tier, str) else tier
            )
        else:
            self._resources = self.config.resources

    def run(self) -> TraceArchive:
        archive = TraceArchive(self.flow.name)
        for _ in range(self.config.runs):
            archive.add(self.run_once())
        return archive

    def run_once(self) -> FlowTrace:
        trace = FlowTrace(flow_name=self.flow.name)
        overhead = self._config_overhead()
        rows_out: dict[str, float] = {}
        defects: dict[str, dict[str, float]] = {}
        times: dict[str, float] = {}
        freshness_lags: list[float] = []
        update_frequencies: list[float] = []

        for op in reference_topological_order(self.flow):
            rows_in, in_defects = self._gather_inputs(op, rows_out, defects)
            if op.kind.is_source:
                sample = self._generator.sample(SourceProfile.from_operation(op))
                rows_in = sample["rows"]
                in_defects = {
                    "null_rows": sample["null_rows"],
                    "duplicate_rows": sample["duplicate_rows"],
                    "error_rows": sample["error_rows"],
                }
                freshness_lags.append(sample["freshness_lag_minutes"])
                update_frequencies.append(sample["update_frequency_per_day"])
                trace.rows_extracted += rows_in
            out_rows, out_defects = self._apply_operation(op, rows_in, in_defects)
            time_ms = self._operation_time(op, rows_in, overhead)
            rows_out[op.op_id] = out_rows
            defects[op.op_id] = out_defects
            times[op.op_id] = time_ms
            trace.operations[op.op_id] = OperationTrace(
                op_id=op.op_id,
                kind=op.kind.value,
                rows_in=rows_in,
                rows_out=out_rows,
                time_ms=time_ms,
                null_rows=out_defects["null_rows"],
                duplicate_rows=out_defects["duplicate_rows"],
                error_rows=out_defects["error_rows"],
                memory_kb=op.properties.memory_per_tuple * rows_in,
                parallelism=self._resources.effective_parallelism(op.parallelism),
            )
            if op.kind.is_sink:
                trace.rows_loaded += out_rows

        critical_path_ms = self._critical_path_time(times)
        total_work_ms = sum(times.values())
        random_values = {op.op_id: self._generator.random() for op in self.flow.operations()}
        failures = [
            op.op_id
            for op in self.flow.operations()
            if random_values.get(op.op_id, 1.0) < op.properties.failure_rate
        ]
        events = [reference_lost_work(self.flow, op_id, times) for op_id in failures]
        lost_work = sum(event.lost_work_ms for event in events)
        unprotected = [event for event in events if not event.recovered_from]

        trace.failures = events
        trace.recovered_failures = len(events) - len(unprotected)
        trace.lost_work_ms = lost_work
        trace.succeeded = not unprotected
        trace.critical_path_ms = critical_path_ms
        trace.cycle_time_ms = critical_path_ms + lost_work
        trace.freshness_lag_minutes = self._effective_freshness(freshness_lags)
        trace.update_frequency_per_day = (
            min(update_frequencies) if update_frequencies else 24.0
        )
        trace.monetary_cost = self._monetary_cost(total_work_ms + lost_work)
        return trace

    def _gather_inputs(
        self,
        op: Operation,
        rows_out: Mapping[str, float],
        defects: Mapping[str, Mapping[str, float]],
    ) -> tuple[float, dict[str, float]]:
        rows_in = 0.0
        in_defects = {"null_rows": 0.0, "duplicate_rows": 0.0, "error_rows": 0.0}
        for pred in self.flow.predecessors(op.op_id):
            produced = rows_out.get(pred.op_id, 0.0)
            pred_defects = defects.get(
                pred.op_id, {"null_rows": 0.0, "duplicate_rows": 0.0, "error_rows": 0.0}
            )
            share = 1.0
            if pred.kind in _PARTITIONING_KINDS:
                out_degree = max(1, self.flow.out_degree(pred.op_id))
                share = 1.0 / out_degree
            rows_in += produced * share
            for key in in_defects:
                in_defects[key] += pred_defects[key] * share
        return rows_in, in_defects

    def _apply_operation(
        self, op: Operation, rows_in: float, in_defects: Mapping[str, float]
    ) -> tuple[float, dict[str, float]]:
        props = op.properties
        nulls = in_defects["null_rows"]
        dups = in_defects["duplicate_rows"]
        errors = in_defects["error_rows"]

        if op.kind.is_source:
            rows_out = rows_in
        elif op.kind is OperationKind.DEDUPLICATE:
            rows_out = max(0.0, rows_in - dups)
            dups = 0.0
            nulls = min(nulls, rows_out)
            errors = min(errors, rows_out)
        elif op.kind is OperationKind.FILTER_NULLS:
            rows_out = max(0.0, rows_in - nulls)
            nulls = 0.0
            dups = min(dups, rows_out)
            errors = min(errors, rows_out)
        elif op.kind is OperationKind.CROSSCHECK:
            rows_out = rows_in * props.selectivity
            errors = errors * (1.0 - _CROSSCHECK_CORRECTION)
        elif op.kind in (OperationKind.VALIDATE, OperationKind.CLEANSE):
            rows_out = rows_in * props.selectivity
            errors = errors * max(0.0, 1.0 - props.selectivity + props.error_rate)
            nulls *= props.selectivity
            dups *= props.selectivity
        else:
            rows_out = rows_in * props.selectivity
            scale = props.selectivity if props.selectivity < 1.0 else 1.0
            nulls *= scale
            dups *= scale
            errors *= scale

        nulls += rows_out * props.null_rate if not op.kind.is_source else 0.0
        dups += rows_out * props.duplicate_rate if not op.kind.is_source else 0.0
        errors += rows_out * props.error_rate if not op.kind.is_source else 0.0

        out_defects = {
            "null_rows": min(nulls, rows_out) if rows_out else 0.0,
            "duplicate_rows": min(dups, rows_out) if rows_out else 0.0,
            "error_rows": min(errors, rows_out) if rows_out else 0.0,
        }
        if op.kind.is_source:
            out_defects = {
                "null_rows": in_defects["null_rows"],
                "duplicate_rows": in_defects["duplicate_rows"],
                "error_rows": in_defects["error_rows"],
            }
        return rows_out, out_defects

    def _config_overhead(self) -> float:
        overhead = 1.0
        if self.flow.annotations.get("encryption"):
            overhead *= _ENCRYPTION_OVERHEAD
        if self.flow.annotations.get("access_control"):
            overhead *= _ACCESS_CONTROL_OVERHEAD
        return overhead

    def _operation_time(self, op: Operation, rows_in: float, overhead: float) -> float:
        props = op.properties
        parallelism = self._resources.effective_parallelism(op.parallelism)
        variable = props.cost_per_tuple * rows_in / parallelism
        raw = props.fixed_cost + variable
        return self._resources.scale_time(raw * overhead)

    def _critical_path_time(self, times: Mapping[str, float]) -> float:
        best: dict[str, float] = {}
        result = 0.0
        for op in reference_topological_order(self.flow):
            preds = self.flow.predecessors(op.op_id)
            upstream = max((best[p.op_id] for p in preds), default=0.0)
            best[op.op_id] = upstream + times.get(op.op_id, 0.0)
            result = max(result, best[op.op_id])
        return result

    def _effective_freshness(self, source_lags: list[float]) -> float:
        lag = max(source_lags, default=0.0)
        frequency = float(self.flow.annotations.get("schedule_frequency_per_day", 24.0))
        if frequency <= 0:
            frequency = 1.0
        schedule_lag = (24.0 * 60.0 / frequency) / 2.0
        return lag + schedule_lag

    def _monetary_cost(self, total_work_ms: float) -> float:
        infrastructure = self._resources.cost_of(total_work_ms)
        per_operation = sum(op.properties.monetary_cost for op in self.flow.operations())
        frequency = float(self.flow.annotations.get("schedule_frequency_per_day", 24.0))
        frequency_factor = max(frequency, 1.0) / 24.0
        return (infrastructure + per_operation) * frequency_factor


def reference_simulate(flow: ETLGraph, config: SimulationConfig) -> TraceArchive:
    """Simulate ``config.runs`` executions of ``flow`` with the reference engine."""
    return ReferenceSimulator(flow, config).run()
