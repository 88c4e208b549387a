"""Trace records produced by the ETL runtime simulator.

A :class:`FlowTrace` captures one simulated execution of an ETL flow: per
operation row counts, processing time, data-quality defect counts, and the
failure/recovery events of the run.  A :class:`TraceArchive` aggregates
several runs of the same flow (the simulator's stand-in for "historical
traces") and offers the summary statistics the trace-based quality
measures need.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.simulator.failures import FailureEvent


@dataclass
class OperationTrace:
    """Runtime record of one operation within one simulated execution.

    Attributes
    ----------
    op_id, kind:
        Identity of the traced operation.
    rows_in / rows_out:
        Number of tuples consumed and emitted.
    time_ms:
        Wall-clock processing time attributed to the operation, after
        accounting for parallelism and resource speed.
    null_rows, duplicate_rows, error_rows:
        Data-quality defect counts present in the operation's *output*.
    memory_kb:
        Peak buffered memory attributed to the operation.
    parallelism:
        Effective degree of parallelism used.
    """

    op_id: str
    kind: str
    rows_in: float = 0.0
    rows_out: float = 0.0
    time_ms: float = 0.0
    null_rows: float = 0.0
    duplicate_rows: float = 0.0
    error_rows: float = 0.0
    memory_kb: float = 0.0
    parallelism: int = 1

    @property
    def selectivity(self) -> float:
        """Observed output/input row ratio of the operation."""
        if self.rows_in <= 0:
            return 1.0
        return self.rows_out / self.rows_in


#: The fields of a :class:`FlowTrace`, in the order ``==`` and ``repr`` use.
_TRACE_FIELDS = (
    "flow_name",
    "operations",
    "cycle_time_ms",
    "critical_path_ms",
    "rows_loaded",
    "rows_extracted",
    "failures",
    "recovered_failures",
    "lost_work_ms",
    "freshness_lag_minutes",
    "update_frequency_per_day",
    "monetary_cost",
    "succeeded",
)


class FlowTrace:
    """Record of one simulated end-to-end execution of an ETL flow.

    Constructed, compared and printed like a dataclass of
    :data:`_TRACE_FIELDS`.  A trace made by the simulator holds its
    per-operation values as columns (:meth:`set_columns`) and builds the
    :attr:`operations` mapping only when it is first read; the sink defect
    totals it already carries, so the defect-rate measures never need it.
    """

    __hash__ = None  # mutable, compared by value

    def __init__(
        self,
        flow_name: str,
        operations: dict[str, OperationTrace] | None = None,
        cycle_time_ms: float = 0.0,
        critical_path_ms: float = 0.0,
        rows_loaded: float = 0.0,
        rows_extracted: float = 0.0,
        failures: list[FailureEvent] | None = None,
        recovered_failures: int = 0,
        lost_work_ms: float = 0.0,
        freshness_lag_minutes: float = 0.0,
        update_frequency_per_day: float = 24.0,
        monetary_cost: float = 0.0,
        succeeded: bool = True,
    ) -> None:
        self.flow_name = flow_name
        self._operations = {} if operations is None else operations
        self._columns: tuple | None = None
        self._sink_totals: tuple[float, float, float] | None = None
        self.cycle_time_ms = cycle_time_ms
        self.critical_path_ms = critical_path_ms
        self.rows_loaded = rows_loaded
        self.rows_extracted = rows_extracted
        self.failures = [] if failures is None else failures
        self.recovered_failures = recovered_failures
        self.lost_work_ms = lost_work_ms
        self.freshness_lag_minutes = freshness_lag_minutes
        self.update_frequency_per_day = update_frequency_per_day
        self.monetary_cost = monetary_cost
        self.succeeded = succeeded

    def set_columns(
        self,
        layout: Sequence[tuple[str, str, float, int]],
        values: Sequence[tuple[float, float, float, float, float]],
        times: Sequence[float],
        sinks: Sequence[tuple[float, float, float, float, float]],
    ) -> None:
        """Install one run's per-operation values, in operation (visit) order.

        ``layout`` holds ``(op_id, kind, memory per tuple, parallelism)``
        per operation, ``values`` its ``(rows_in, rows_out, nulls, dups,
        errors)`` and ``times`` its time in ms; ``sinks`` are the values of
        the sink operations among them.  The sink totals are summed here,
        in visit order, as :attr:`total_null_rows` and friends would sum
        them over :attr:`operations`.
        """
        self._operations = None
        self._columns = (layout, values, times)
        if sinks:
            self._sink_totals = (
                sum([value[2] for value in sinks]),
                sum([value[3] for value in sinks]),
                sum([value[4] for value in sinks]),
            )
        else:
            self._sink_totals = (0.0, 0.0, 0.0)

    @property
    def operations(self) -> dict[str, OperationTrace]:
        """Per-operation traces by ``op_id``, in visit order."""
        if self._operations is None:
            layout, values, times = self._columns
            # Positional, in field order: op_id, kind, rows_in, rows_out,
            # time_ms, null/duplicate/error rows, memory_kb, parallelism.
            self._operations = {
                op_id: OperationTrace(
                    op_id, kind, rows_in, rows, time_ms, nulls, dups, errors,
                    memory_per_tuple * rows_in, parallelism,
                )
                for (op_id, kind, memory_per_tuple, parallelism), (
                    rows_in, rows, nulls, dups, errors
                ), time_ms in zip(layout, values, times)
            }
            self._columns = None
        return self._operations

    @operations.setter
    def operations(self, operations: dict[str, OperationTrace]) -> None:
        self._operations = operations
        self._columns = None
        self._sink_totals = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _TRACE_FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in _TRACE_FIELDS)

    def operation(self, op_id: str) -> OperationTrace:
        """The trace of one operation (raises ``KeyError`` if absent)."""
        return self.operations[op_id]

    def sink_defect_totals(self) -> tuple[float, float, float]:
        """Null, duplicate and error rows in the data loaded by the sinks.

        Carried by simulator traces; otherwise summed over the sink
        (``load_*``) operations in operation order.
        """
        if self._sink_totals is not None:
            return self._sink_totals
        sinks = [t for t in self.operations.values() if t.kind.startswith("load_")]
        if not sinks:
            return (0.0, 0.0, 0.0)
        return (
            sum(t.null_rows for t in sinks),
            sum(t.duplicate_rows for t in sinks),
            sum(t.error_rows for t in sinks),
        )

    @property
    def total_error_rows(self) -> float:
        """Erroneous rows present in the data loaded by the sink operations."""
        return self.sink_defect_totals()[2]

    @property
    def total_null_rows(self) -> float:
        """Rows with NULL defects present in the loaded data."""
        return self.sink_defect_totals()[0]

    @property
    def total_duplicate_rows(self) -> float:
        """Duplicate rows present in the loaded data."""
        return self.sink_defect_totals()[1]

    @property
    def average_latency_per_tuple_ms(self) -> float:
        """Average processing latency per extracted tuple (Fig. 1 measure)."""
        if self.rows_extracted <= 0:
            return 0.0
        return self.cycle_time_ms / self.rows_extracted

    @property
    def failure_count(self) -> int:
        """Number of failure events encountered during the run."""
        return len(self.failures)


class TraceArchive:
    """Aggregate view over several simulated executions of the same flow.

    This plays the role of the "historical traces capturing the runtime
    behaviour of ETL components" that the paper's trace-based measures are
    computed from.
    """

    def __init__(self, flow_name: str, traces: Iterable[FlowTrace] = ()) -> None:
        self.flow_name = flow_name
        self._traces: list[FlowTrace] = list(traces)
        self._defect_rates: dict[str, float] | None = None

    def add(self, trace: FlowTrace) -> None:
        """Append one execution's trace to the archive."""
        if trace.flow_name != self.flow_name:
            raise ValueError(
                f"trace of flow {trace.flow_name!r} cannot join archive of {self.flow_name!r}"
            )
        self._traces.append(trace)
        self._defect_rates = None

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[FlowTrace]:
        return iter(self._traces)

    def __getitem__(self, index: int) -> FlowTrace:
        return self._traces[index]

    # -- aggregates -----------------------------------------------------

    def _require_traces(self) -> None:
        if not self._traces:
            raise ValueError("the trace archive is empty")

    def mean_cycle_time_ms(self) -> float:
        """Mean end-to-end cycle time across runs."""
        self._require_traces()
        return statistics.fmean([t.cycle_time_ms for t in self._traces])

    def percentile_cycle_time_ms(self, percentile: float) -> float:
        """Cycle-time percentile (e.g. 95) across runs."""
        self._require_traces()
        if not 0 < percentile <= 100:
            raise ValueError("percentile must lie in (0, 100]")
        ordered = sorted(t.cycle_time_ms for t in self._traces)
        rank = max(0, min(len(ordered) - 1, round(percentile / 100 * (len(ordered) - 1))))
        return ordered[rank]

    def mean_latency_per_tuple_ms(self) -> float:
        """Mean per-tuple latency across runs."""
        self._require_traces()
        return statistics.fmean([t.average_latency_per_tuple_ms for t in self._traces])

    def success_rate(self) -> float:
        """Fraction of runs that completed successfully."""
        self._require_traces()
        return sum(1 for t in self._traces if t.succeeded) / len(self._traces)

    def mean_lost_work_ms(self) -> float:
        """Mean amount of work repeated or lost due to failures."""
        self._require_traces()
        return statistics.fmean([t.lost_work_ms for t in self._traces])

    def mean_rows_loaded(self) -> float:
        """Mean number of rows delivered to the sinks."""
        self._require_traces()
        return statistics.fmean([t.rows_loaded for t in self._traces])

    def mean_defect_rates(self) -> dict[str, float]:
        """Mean null/duplicate/error rates of the loaded data across runs.

        Each rate divides a trace's :meth:`FlowTrace.sink_defect_totals`
        by its loaded rows, so it equals the quotient of
        :attr:`FlowTrace.total_null_rows` and friends bit for bit.  The
        three rates are computed once per archive content (:meth:`add`
        clears them) and returned as a fresh dict.
        """
        self._require_traces()
        if self._defect_rates is None:
            nulls, dups, errs = [], [], []
            for trace in self._traces:
                loaded = max(trace.rows_loaded, 1.0)
                null_rows, duplicate_rows, error_rows = trace.sink_defect_totals()
                nulls.append(null_rows / loaded)
                dups.append(duplicate_rows / loaded)
                errs.append(error_rows / loaded)
            self._defect_rates = {
                "null_rate": statistics.fmean(nulls),
                "duplicate_rate": statistics.fmean(dups),
                "error_rate": statistics.fmean(errs),
            }
        return dict(self._defect_rates)

    def mean_monetary_cost(self) -> float:
        """Mean per-execution monetary cost."""
        self._require_traces()
        return statistics.fmean([t.monetary_cost for t in self._traces])

    def mean_freshness_lag_minutes(self) -> float:
        """Mean staleness of the loaded data in minutes."""
        self._require_traces()
        return statistics.fmean([t.freshness_lag_minutes for t in self._traces])

    def mean_update_frequency(self) -> float:
        """Mean source update frequency observed across runs."""
        self._require_traces()
        return statistics.fmean([t.update_frequency_per_day for t in self._traces])

    def operation_time_breakdown(self) -> dict[str, float]:
        """Mean processing time per operation across runs (``op_id -> ms``)."""
        self._require_traces()
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for trace in self._traces:
            for op_id, op_trace in trace.operations.items():
                sums[op_id] = sums.get(op_id, 0.0) + op_trace.time_ms
                counts[op_id] = counts.get(op_id, 0) + 1
        return {op_id: sums[op_id] / counts[op_id] for op_id in sums}

    def summary(self) -> dict[str, float]:
        """A compact numeric summary used by reports and tests."""
        self._require_traces()
        defects = self.mean_defect_rates()
        return {
            "runs": float(len(self._traces)),
            "mean_cycle_time_ms": self.mean_cycle_time_ms(),
            "mean_latency_per_tuple_ms": self.mean_latency_per_tuple_ms(),
            "success_rate": self.success_rate(),
            "mean_lost_work_ms": self.mean_lost_work_ms(),
            "mean_rows_loaded": self.mean_rows_loaded(),
            "mean_monetary_cost": self.mean_monetary_cost(),
            "null_rate": defects["null_rate"],
            "duplicate_rate": defects["duplicate_rate"],
            "error_rate": defects["error_rate"],
        }
