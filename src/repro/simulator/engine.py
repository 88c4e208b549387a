"""Operator-by-operator simulation of ETL flow executions.

A simulator lowers its flow once, at construction, into flat records in
topological order.  Each execution then walks those records, propagating
row volumes and data-quality defect counts from the sources to the sinks,
charging per-operation processing time according to the operation cost
model and the resource environment, sampling failures and computing the
recovery cost given the checkpoints present in the flow.  Because of the
lowering, a flow mutated after its simulator was built needs a new
simulator.  Each execution yields a
:class:`~repro.simulator.traces.FlowTrace`; repeated executions are
collected into a :class:`~repro.simulator.traces.TraceArchive` which
stands in for the historical traces the paper's measures are based on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.etl.graph import ETLGraph
from repro.etl.operations import OperationKind
from repro.simulator.datagen import SourceProfile, SyntheticDataGenerator
from repro.simulator.failures import FailureInjector
from repro.simulator.resources import ResourceModel, ResourceTier
from repro.simulator.traces import FlowTrace, OperationTrace, TraceArchive

# Kinds that divide their output rows among successors instead of
# replicating the full output on every outgoing edge.
_PARTITIONING_KINDS = frozenset(
    {OperationKind.SPLIT, OperationKind.ROUTER, OperationKind.PARTITION}
)

# Kind codes of the lowered flow: one per branch of the row/defect model.
_SOURCE, _DEDUPLICATE, _FILTER_NULLS, _CROSSCHECK, _CLEANSING, _OTHER = range(6)
_BRANCH_CODES = {
    OperationKind.DEDUPLICATE: _DEDUPLICATE,
    OperationKind.FILTER_NULLS: _FILTER_NULLS,
    OperationKind.CROSSCHECK: _CROSSCHECK,
    OperationKind.VALIDATE: _CLEANSING,
    OperationKind.CLEANSE: _CLEANSING,
}
#: kind -> (value, code, is sink, partitions its output among successors)
_KIND_INFO = {
    kind: (
        kind.value,
        _SOURCE if kind.is_source else _BRANCH_CODES.get(kind, _OTHER),
        kind.is_sink,
        kind in _PARTITIONING_KINDS,
    )
    for kind in OperationKind
}

# Fraction of data errors corrected by a crosscheck against an alternative
# data source (the CrosscheckSources pattern).
_CROSSCHECK_CORRECTION = 0.85

# Per-tuple overhead multipliers applied by process-wide (graph-level)
# configuration patterns.
_ENCRYPTION_OVERHEAD = 1.12
_ACCESS_CONTROL_OVERHEAD = 1.03


class _LoweredOperation(NamedTuple):
    """One operation of a lowered flow (see :class:`ETLSimulator`).

    ``inputs`` holds ``(position, share)`` per predecessor, in edge
    insertion order: the predecessor's position in the topological order
    and the fraction of its output this operation receives (``1 /
    out-degree`` behind a partitioning router, else 1); ``preds`` holds
    the positions alone, for the critical-path pass.
    """

    op_id: str
    kind: str
    code: int
    is_sink: bool
    inputs: tuple[tuple[int, float], ...]
    preds: tuple[int, ...]
    selectivity: float
    null_rate: float
    duplicate_rate: float
    error_rate: float
    cost_per_tuple: float
    fixed_cost: float
    memory_per_tuple: float
    parallelism: int
    profile: SourceProfile | None


@dataclass
class SimulationConfig:
    """Parameters of a simulation campaign.

    Attributes
    ----------
    runs:
        Number of executions to simulate (the size of the synthetic
        "historical trace" archive).
    seed:
        Seed of the random generator; identical seeds yield identical
        archives for identical flows.
    resources:
        Execution environment; overridden by a ``resource_tier`` graph
        annotation when present on the flow.
    volume_jitter:
        Run-to-run variation of the extraction volumes.
    """

    runs: int = 5
    seed: int | None = 7
    resources: ResourceModel = field(default_factory=ResourceModel)
    volume_jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")


class ETLSimulator:
    """Simulates executions of a single ETL flow.

    The flow is lowered once, at construction, into flat per-operation
    records in topological order (predecessor positions with their
    partition shares, a kind code, the cost/defect properties, the
    effective parallelism, each source's :class:`SourceProfile`, a sink
    flag) plus the insertion-ordered failure rates and the per-operation
    monetary sum.  Every run then propagates rows, defects, times and the
    critical path over plain lists in one pass.  The lowering is a
    snapshot: a flow mutated after construction (structure, operation
    properties or annotations) needs a new simulator.
    """

    def __init__(self, flow: ETLGraph, config: SimulationConfig | None = None) -> None:
        self.flow = flow
        self.config = config or SimulationConfig()
        self._generator = SyntheticDataGenerator(
            seed=self.config.seed, jitter=self.config.volume_jitter
        )
        self._injector = FailureInjector(flow)
        self._resources = self._resolve_resources()
        self._lower()

    def _resolve_resources(self) -> ResourceModel:
        tier = self.flow.annotations.get("resource_tier")
        if tier:
            return ResourceModel.from_tier(ResourceTier(tier) if isinstance(tier, str) else tier)
        return self.config.resources

    def _lower(self) -> None:
        """Flatten the flow into the per-run records (see the class docstring)."""
        flow = self.flow
        resources = self._resources
        order = flow.topological_ids()
        position = {op_id: index for index, op_id in enumerate(order)}
        # Share of a partitioning operation's output each successor gets,
        # by position (predecessors precede their successors in ``order``).
        shares: list[float] = []
        records = []
        for op_id in order:
            op = flow.operation(op_id)
            kind, code, is_sink, partitioning = _KIND_INFO[op.kind]
            shares.append(1.0 / max(1, flow.out_degree(op_id)) if partitioning else 1.0)
            preds = tuple(map(position.__getitem__, flow.predecessor_ids(op_id)))
            props = op.properties
            # Positional, in field order: a keyword call costs twice as much.
            records.append(
                _LoweredOperation(
                    op_id,
                    kind,
                    code,
                    is_sink,
                    tuple(zip(preds, map(shares.__getitem__, preds))),
                    preds,
                    props.selectivity,
                    props.null_rate,
                    props.duplicate_rate,
                    props.error_rate,
                    props.cost_per_tuple,
                    props.fixed_cost,
                    props.memory_per_tuple,
                    resources.effective_parallelism(op.parallelism),
                    SourceProfile.from_operation(op) if code == _SOURCE else None,
                )
            )
        self._order = order
        self._records = records
        operations = flow.operations()
        self._insertion_ids = [op.op_id for op in operations]
        self._failure_rates = [op.properties.failure_rate for op in operations]
        self._per_operation_cost = sum(op.properties.monetary_cost for op in operations)
        overhead = 1.0
        if flow.annotations.get("encryption"):
            overhead *= _ENCRYPTION_OVERHEAD
        if flow.annotations.get("access_control"):
            overhead *= _ACCESS_CONTROL_OVERHEAD
        self._overhead = overhead
        frequency = float(flow.annotations.get("schedule_frequency_per_day", 24.0))
        self._frequency_factor = max(frequency, 1.0) / 24.0
        if frequency <= 0:
            frequency = 1.0
        # Half the scheduling period is the expected additional staleness
        # introduced by running the process `frequency` times per day.
        self._schedule_lag = (24.0 * 60.0 / frequency) / 2.0

    # ------------------------------------------------------------------

    def run(self) -> TraceArchive:
        """Simulate ``config.runs`` executions and return the trace archive."""
        archive = TraceArchive(self.flow.name)
        for _ in range(self.config.runs):
            archive.add(self.run_once())
        return archive

    def run_once(self) -> FlowTrace:
        """Simulate a single end-to-end execution of the flow."""
        trace = FlowTrace(flow_name=self.flow.name)
        operations = trace.operations
        generator = self._generator
        overhead = self._overhead
        speed = self._resources.speed
        count = len(self._records)
        rows_out = [0.0] * count
        nulls_out = [0.0] * count
        dups_out = [0.0] * count
        errors_out = [0.0] * count
        times = [0.0] * count
        finish = [0.0] * count
        critical_path_ms = 0.0
        freshness_lags: list[float] = []
        update_frequencies: list[float] = []

        for index, (
            op_id,
            kind,
            code,
            is_sink,
            inputs,
            preds,
            selectivity,
            null_rate,
            duplicate_rate,
            error_rate,
            cost_per_tuple,
            fixed_cost,
            memory_per_tuple,
            parallelism,
            profile,
        ) in enumerate(self._records):
            if code == _SOURCE:
                sample = generator.sample(profile)
                rows_in = sample["rows"]
                nulls = sample["null_rows"]
                dups = sample["duplicate_rows"]
                errors = sample["error_rows"]
                freshness_lags.append(sample["freshness_lag_minutes"])
                update_frequencies.append(sample["update_frequency_per_day"])
                trace.rows_extracted += rows_in
                rows = rows_in
            else:
                # Inputs summed over predecessors in edge insertion order.
                rows_in = nulls = dups = errors = 0.0
                for pred, share in inputs:
                    rows_in += rows_out[pred] * share
                    nulls += nulls_out[pred] * share
                    dups += dups_out[pred] * share
                    errors += errors_out[pred] * share
                if code == _OTHER:
                    rows = rows_in * selectivity
                    scale = selectivity if selectivity < 1.0 else 1.0
                    nulls *= scale
                    dups *= scale
                    errors *= scale
                elif code == _DEDUPLICATE:
                    rows = max(0.0, rows_in - dups)
                    dups = 0.0
                    nulls = min(nulls, rows)
                    errors = min(errors, rows)
                elif code == _FILTER_NULLS:
                    rows = max(0.0, rows_in - nulls)
                    nulls = 0.0
                    dups = min(dups, rows)
                    errors = min(errors, rows)
                elif code == _CROSSCHECK:
                    rows = rows_in * selectivity
                    errors = errors * (1.0 - _CROSSCHECK_CORRECTION)
                else:  # _CLEANSING
                    rows = rows_in * selectivity
                    errors = errors * max(0.0, 1.0 - selectivity + error_rate)
                    nulls *= selectivity
                    dups *= selectivity
                # The operation itself may introduce new defects on its output.
                nulls += rows * null_rate
                dups += rows * duplicate_rate
                errors += rows * error_rate
                if rows:
                    # min(defect, rows), inlined on the hot path.
                    if rows < nulls:
                        nulls = rows
                    if rows < dups:
                        dups = rows
                    if rows < errors:
                        errors = rows
                else:
                    nulls = dups = errors = 0.0

            variable = cost_per_tuple * rows_in / parallelism
            # ResourceModel.scale_time, inlined: divide by the speed.
            time_ms = (fixed_cost + variable) * overhead / speed
            rows_out[index] = rows
            nulls_out[index] = nulls
            dups_out[index] = dups
            errors_out[index] = errors
            times[index] = time_ms
            # Longest path where each node contributes its processing
            # time: pipeline branches execute concurrently.
            reached = max(map(finish.__getitem__, preds), default=0.0) + time_ms
            finish[index] = reached
            if reached > critical_path_ms:
                critical_path_ms = reached
            # Positional, in field order: op_id, kind, rows_in, rows_out,
            # time_ms, null/duplicate/error rows, memory_kb, parallelism.
            operations[op_id] = OperationTrace(
                op_id,
                kind,
                rows_in,
                rows,
                time_ms,
                nulls,
                dups,
                errors,
                memory_per_tuple * rows_in,
                parallelism,
            )
            if is_sink:
                trace.rows_loaded += rows

        total_work_ms = sum(times)
        # One uniform per operation, in insertion order, after the sources.
        draws = generator.random_batch(len(self._failure_rates))
        failed = [
            op_id
            for op_id, rate, draw in zip(self._insertion_ids, self._failure_rates, draws)
            if draw < rate
        ]
        events = (
            self._injector.recovery_events(failed, dict(zip(self._order, times)))
            if failed
            else []
        )
        lost_work = sum(event.lost_work_ms for event in events)
        unprotected = [event for event in events if not event.recovered_from]

        trace.failures = events
        trace.recovered_failures = len(events) - len(unprotected)
        trace.lost_work_ms = lost_work
        trace.succeeded = not unprotected
        trace.critical_path_ms = critical_path_ms
        trace.cycle_time_ms = critical_path_ms + lost_work
        trace.freshness_lag_minutes = max(freshness_lags, default=0.0) + self._schedule_lag
        trace.update_frequency_per_day = (
            min(update_frequencies) if update_frequencies else 24.0
        )
        infrastructure = self._resources.cost_of(total_work_ms + lost_work)
        trace.monetary_cost = (infrastructure + self._per_operation_cost) * self._frequency_factor
        return trace


def simulate_flow(
    flow: ETLGraph,
    runs: int = 5,
    seed: int | None = 7,
    resources: ResourceModel | None = None,
) -> TraceArchive:
    """Convenience wrapper: simulate ``runs`` executions of ``flow``."""
    config = SimulationConfig(runs=runs, seed=seed, resources=resources or ResourceModel())
    return ETLSimulator(flow, config).run()
