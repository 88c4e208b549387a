"""Content-addressed simulation of ETL flow executions.

An execution propagates row volumes and data-quality defect counts from
the sources to the sinks, charges per-operation processing time according
to the operation cost model and the resource environment, samples
failures and computes the recovery cost given the checkpoints present in
the flow.  Each execution yields a :class:`~repro.simulator.traces.FlowTrace`;
repeated executions are collected into a
:class:`~repro.simulator.traces.TraceArchive` which stands in for the
historical traces the paper's measures are based on.

The alternatives of one plan are the initial flow plus a small delta, so
most of their per-operation row/defect states repeat.  A
:class:`SimulationMemo` computes each distinct state once -- the forward
data-flow propagation of a flowgraph, re-run only where an operation's
inputs changed:

* **Basis.**  One random stream per (seed, jitter, sampling inputs of the
  sources in topological order, operation count) draws each run's source
  samples and then ``random_batch(operation count)`` failure uniforms,
  in the order a single flow's own generator would draw them.
* **Interned states.**  An operation's per-run ``(rows_in, rows, nulls,
  dups, errors)`` is interned by its kind code, selectivity and defect
  rates, plus ``(predecessor state, partition share)`` per predecessor in
  edge insertion order.  Only new states are propagated, with the same
  arithmetic in the same order as a walk of the one flow.
* **Per flow and run.**  Times, the critical path, the sink totals and
  the failures depend on annotations and resources, and are recomputed
  for every flow and every run.

An :class:`ETLSimulator` without a memo gets a private one, so a flow
simulated alone and the same flow simulated among a plan's alternatives
give equal traces.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.simulator.datagen import SourceProfile, SyntheticDataGenerator
from repro.simulator.failures import FailureInjector
from repro.simulator.resources import ResourceModel, ResourceTier
from repro.simulator.traces import FlowTrace, TraceArchive

# Kinds that divide their output rows among successors instead of
# replicating the full output on every outgoing edge.
_PARTITIONING_KINDS = frozenset(
    {OperationKind.SPLIT, OperationKind.ROUTER, OperationKind.PARTITION}
)

# Kind codes: one per branch of the row/defect model.
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


class _Record:
    """The static part of one operation, read once per operation value."""

    __slots__ = (
        "op",
        "kind",
        "code",
        "is_sink",
        "partitioning",
        "model",
        "failure_rate",
        "monetary_cost",
        "profile",
        "_workers",
        "_timing",
    )

    def __init__(self, op: Operation, model: int) -> None:
        self.op = op  # keeps the payload, so its id() stays unique
        self.kind, self.code, self.is_sink, self.partitioning = _KIND_INFO[op.kind]
        # Interned (code, selectivity, defect rates): equal numbers mean
        # equal row/defect arithmetic.
        self.model = model
        self.failure_rate = op.properties.failure_rate
        self.monetary_cost = op.properties.monetary_cost
        self.profile = SourceProfile.from_operation(op) if self.code == _SOURCE else None
        self._workers = 0
        self._timing: tuple = ()

    def timing(self, workers: int) -> tuple:
        """``((fixed cost, cost per tuple, parallelism), (op_id, kind, memory
        per tuple, parallelism))`` under ``workers`` (kept for the last count)."""
        if workers != self._workers:
            props = self.op.properties
            # ResourceModel.effective_parallelism, inlined.
            parallelism = max(1, min(self.op.parallelism, workers))
            self._timing = (
                (props.fixed_cost, props.cost_per_tuple, parallelism),
                (self.op.op_id, self.kind, props.memory_per_tuple, parallelism),
            )
            self._workers = workers
        return self._timing


class _State:
    """One interned row/defect state: an operation's output in every run drawn so far.

    ``runs[r]`` is ``(rows_in, rows, nulls, dups, errors)`` of run ``r``.
    A source state is filled by its basis; any other state propagates
    its ``inputs`` -- ``(predecessor state, share)`` pairs in edge
    insertion order -- on demand (:meth:`extend`).
    """

    __slots__ = (
        "code",
        "selectivity",
        "null_rate",
        "duplicate_rate",
        "error_rate",
        "inputs",
        "runs",
    )

    def __init__(
        self, op: Operation | None = None, code: int = _SOURCE, inputs: tuple = ()
    ) -> None:
        if op is not None:
            props = op.properties
            self.selectivity = props.selectivity
            self.null_rate = props.null_rate
            self.duplicate_rate = props.duplicate_rate
            self.error_rate = props.error_rate
        self.code = code
        self.inputs = inputs
        self.runs: list[tuple[float, float, float, float, float]] = []

    def extend(self, stop: int) -> None:
        """Propagate runs up to ``stop`` (the inputs already hold them)."""
        runs = self.runs
        code = self.code
        inputs = self.inputs
        selectivity = self.selectivity
        null_rate = self.null_rate
        duplicate_rate = self.duplicate_rate
        error_rate = self.error_rate
        for run in range(len(runs), stop):
            # Inputs summed over predecessors in edge insertion order.
            rows_in = nulls = dups = errors = 0.0
            for pred, share in inputs:
                _, pred_rows, pred_nulls, pred_dups, pred_errors = pred.runs[run]
                rows_in += pred_rows * share
                nulls += pred_nulls * share
                dups += pred_dups * share
                errors += pred_errors * share
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
            runs.append((rows_in, rows, nulls, dups, errors))


class _Basis:
    """The random draws every flow with the same sampling inputs shares.

    Run ``r`` draws each source's sample in topological order, then one
    failure uniform per operation -- the stream one flow's own generator
    yields -- so any flow with these sources and this operation count
    sees the same draws in every run.
    """

    __slots__ = ("_generator", "_profiles", "_operations", "sources", "draws", "rows_extracted")

    def __init__(
        self, config: SimulationConfig, profiles: list[SourceProfile], operations: int
    ) -> None:
        self._generator = SyntheticDataGenerator(seed=config.seed, jitter=config.volume_jitter)
        self._profiles = profiles
        self._operations = operations
        self.sources = [_State() for _ in profiles]
        self.draws: list[list[float]] = []
        self.rows_extracted: list[float] = []

    def extend(self, stop: int) -> None:
        """Draw runs up to ``stop``."""
        generator = self._generator
        while len(self.draws) < stop:
            extracted = 0.0
            for profile, state in zip(self._profiles, self.sources):
                sample = generator.sample(profile)
                rows = sample["rows"]
                extracted += rows
                nulls = sample["null_rows"]
                state.runs.append(
                    (rows, rows, nulls, sample["duplicate_rows"], sample["error_rows"])
                )
            self.rows_extracted.append(extracted)
            self.draws.append(generator.random_batch(self._operations))


class SimulationMemo:
    """Bases, interned states and static operation records shared across flows.

    Any set of flows may share one memo: states are keyed by content, so
    sharing changes no trace.  A memo grows with the distinct states it
    has seen, so hold it for one plan's evaluation stream and drop it.  It
    is safe to share between threads; it cannot be pickled.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: dict[int, _Record] = {}
        self._models: dict[str, int] = {}
        self._states: dict[tuple, _State] = {}
        self._bases: dict[tuple, _Basis] = {}

    def _record(self, op: Operation) -> _Record:
        """The static record of ``op``, memoized by payload identity (operations are frozen)."""
        record = self._records.get(id(op))
        if record is None:
            props = op.properties
            # Keyed by repr: 0.0 and -0.0 must not share arithmetic.
            model = repr(
                (_KIND_INFO[op.kind][1], props.selectivity, props.null_rate,
                 props.duplicate_rate, props.error_rate)
            )
            number = self._models.setdefault(model, len(self._models))
            record = self._records[id(op)] = _Record(op, number)
        return record

    def _basis(
        self, config: SimulationConfig, profiles: list[SourceProfile], operations: int
    ) -> _Basis:
        if config.seed is None:
            # Unseeded draws are independent per flow, never shared.
            return _Basis(config, profiles, operations)
        # Only rows and defect rates steer the draws of a sample.
        key = (
            config.seed,
            config.volume_jitter,
            operations,
            tuple((p.rows, p.null_rate, p.duplicate_rate, p.error_rate) for p in profiles),
        )
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases[key] = _Basis(config, profiles, operations)
        return basis


class ETLSimulator:
    """Simulates executions of a single ETL flow.

    The flow is compiled once, at construction, against a
    :class:`SimulationMemo` (a private one unless ``memo`` is given): its
    operations' static records, the basis of its sources, and one
    interned state per operation in topological order.  Each run then
    propagates only the states no earlier flow of the memo has
    propagated, and recomputes times, the critical path, sink totals and
    failures over plain lists.  Successive :meth:`run_once` calls yield
    successive runs of one stream.  The compilation is a snapshot: a flow
    mutated after construction (structure, operation properties or
    annotations) needs a new simulator.
    """

    def __init__(
        self,
        flow: ETLGraph,
        config: SimulationConfig | None = None,
        memo: SimulationMemo | None = None,
    ) -> None:
        self.flow = flow
        self.config = config or SimulationConfig()
        self._memo = SimulationMemo() if memo is None else memo
        self._resources = self._resolve_resources()
        self._injector: FailureInjector | None = None
        self._next_run = 0
        with self._memo._lock:
            self._compile()

    def _resolve_resources(self) -> ResourceModel:
        tier = self.flow.annotations.get("resource_tier")
        if tier:
            return ResourceModel.from_tier(ResourceTier(tier) if isinstance(tier, str) else tier)
        return self.config.resources

    def _compile(self) -> None:
        """Resolve records, basis and states (see the class docstring)."""
        flow = self.flow
        memo = self._memo
        workers = self._resources.workers
        order = flow.topological_ids()
        operations = flow.operations()
        known = memo._records.get
        record = memo._record
        # Records in insertion order (failure draws, monetary sum) and in
        # topological order (propagation).
        inserted = [known(id(op)) or record(op) for op in operations]
        by_id = dict(zip(flow.operation_ids(), inserted))
        records = list(map(by_id.__getitem__, order))
        profiles = [record.profile for record in records if record.code == _SOURCE]
        basis = self._basis = memo._basis(self.config, profiles, len(operations))
        sources = iter(basis.sources)
        interned = memo._states
        states: list[_State] = []
        shares: list[float] = []
        costs = []
        layout = []
        pred_positions = flow.predecessor_positions()
        for op_id, record, preds in zip(order, records, pred_positions):
            if record.code == _SOURCE:
                state = next(sources)
            else:
                if len(preds) == 1:
                    pred = preds[0]
                    key = (record.model, states[pred], shares[pred])
                else:
                    key = [record.model]
                    for pred in preds:
                        key.append(states[pred])
                        key.append(shares[pred])
                    key = tuple(key)
                state = interned.get(key)
                if state is None:
                    inputs = tuple(zip(key[1::2], key[2::2]))
                    state = interned[key] = _State(record.op, record.code, inputs)
            states.append(state)
            shares.append(1.0 / max(1, flow.out_degree(op_id)) if record.partitioning else 1.0)
            cost, entry = record.timing(workers)
            costs.append(cost)
            layout.append(entry)
        self._order = order
        self._states = states
        self._costs = costs
        self._preds = pred_positions
        self._sinks = [index for index, record in enumerate(records) if record.is_sink]
        self._layout = tuple(layout)
        # Failure candidates in insertion order: (draw index, op id, rate).
        self._risky = [
            (index, record.op.op_id, record.failure_rate)
            for index, record in enumerate(inserted)
            if record.failure_rate > 0
        ]
        self._per_operation_cost = sum(record.monetary_cost for record in inserted)
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
        schedule_lag = (24.0 * 60.0 / frequency) / 2.0
        self._freshness_lag = (
            max((p.freshness_lag_minutes for p in profiles), default=0.0) + schedule_lag
        )
        self._update_frequency = (
            min(p.update_frequency_per_day for p in profiles) if profiles else 24.0
        )

    # ------------------------------------------------------------------

    def run(self) -> TraceArchive:
        """Simulate ``config.runs`` executions and return the trace archive."""
        return TraceArchive(self.flow.name, self._simulate(self.config.runs))

    def run_once(self) -> FlowTrace:
        """Simulate a single end-to-end execution of the flow."""
        return self._simulate(1)[0]

    def _simulate(self, count: int) -> list[FlowTrace]:
        """The next ``count`` runs of the flow's stream."""
        start = self._next_run
        stop = self._next_run = start + count
        with self._memo._lock:
            self._basis.extend(stop)
            for state in self._states:
                if len(state.runs) < stop:
                    state.extend(stop)
        return [self._trace(run) for run in range(start, stop)]

    def _trace(self, run: int) -> FlowTrace:
        """Times, critical path, sink totals and failures of one run."""
        overhead = self._overhead
        speed = self._resources.speed
        values = [state.runs[run] for state in self._states]
        # ResourceModel.scale_time, inlined: divide by the speed.
        times = [
            (fixed_cost + cost_per_tuple * value[0] / parallelism) * overhead / speed
            for (fixed_cost, cost_per_tuple, parallelism), value in zip(self._costs, values)
        ]
        # Longest path where each node contributes its processing time:
        # pipeline branches execute concurrently.
        finish: list[float] = []
        for preds, time_ms in zip(self._preds, times):
            if len(preds) == 1:
                finish.append(finish[preds[0]] + time_ms)
            else:
                finish.append(max(map(finish.__getitem__, preds), default=0.0) + time_ms)
        # The first strict maximum after a 0.0 start, as a running "if
        # reached > best" would keep it.
        critical_path_ms = max((0.0, *finish))
        sinks = [values[index] for index in self._sinks]
        rows_loaded = 0.0
        for value in sinks:
            rows_loaded += value[1]

        total_work_ms = sum(times)
        draws = self._basis.draws[run]
        failed = [op_id for index, op_id, rate in self._risky if draws[index] < rate]
        if failed:
            if self._injector is None:
                self._injector = FailureInjector(self.flow)
            events = self._injector.recovery_events(failed, dict(zip(self._order, times)))
        else:
            events = []
        lost_work = sum(event.lost_work_ms for event in events)
        unprotected = sum(1 for event in events if not event.recovered_from)
        infrastructure = self._resources.cost_of(total_work_ms + lost_work)
        trace = FlowTrace(
            flow_name=self.flow.name,
            cycle_time_ms=critical_path_ms + lost_work,
            critical_path_ms=critical_path_ms,
            rows_loaded=rows_loaded,
            rows_extracted=self._basis.rows_extracted[run],
            failures=events,
            recovered_failures=len(events) - unprotected,
            lost_work_ms=lost_work,
            freshness_lag_minutes=self._freshness_lag,
            update_frequency_per_day=self._update_frequency,
            monetary_cost=(infrastructure + self._per_operation_cost) * self._frequency_factor,
            succeeded=not unprotected,
        )
        trace.set_columns(self._layout, values, times, sinks)
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
