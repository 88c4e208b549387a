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
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

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


@dataclass
class FlowTrace:
    """Record of one simulated end-to-end execution of an ETL flow."""

    flow_name: str
    operations: dict[str, OperationTrace] = field(default_factory=dict)
    cycle_time_ms: float = 0.0
    critical_path_ms: float = 0.0
    rows_loaded: float = 0.0
    rows_extracted: float = 0.0
    failures: list[FailureEvent] = field(default_factory=list)
    recovered_failures: int = 0
    lost_work_ms: float = 0.0
    freshness_lag_minutes: float = 0.0
    update_frequency_per_day: float = 24.0
    monetary_cost: float = 0.0
    succeeded: bool = True

    def operation(self, op_id: str) -> OperationTrace:
        """The trace of one operation (raises ``KeyError`` if absent)."""
        return self.operations[op_id]

    @property
    def total_error_rows(self) -> float:
        """Erroneous rows present in the data loaded by the sink operations."""
        sinks = _sink_traces(self)
        if not sinks:
            return 0.0
        return sum(t.error_rows for t in sinks)

    @property
    def total_null_rows(self) -> float:
        """Rows with NULL defects present in the loaded data."""
        sinks = _sink_traces(self)
        if not sinks:
            return 0.0
        return sum(t.null_rows for t in sinks)

    @property
    def total_duplicate_rows(self) -> float:
        """Duplicate rows present in the loaded data."""
        sinks = _sink_traces(self)
        if not sinks:
            return 0.0
        return sum(t.duplicate_rows for t in sinks)

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


def _sink_traces(trace: FlowTrace) -> list[OperationTrace]:
    """The traces of the sink (``load_*``) operations of one run, in operation order."""
    return [t for t in trace.operations.values() if t.kind.startswith("load_")]


class TraceArchive:
    """Aggregate view over several simulated executions of the same flow.

    This plays the role of the "historical traces capturing the runtime
    behaviour of ETL components" that the paper's trace-based measures are
    computed from.
    """

    def __init__(self, flow_name: str, traces: Iterable[FlowTrace] = ()) -> None:
        self.flow_name = flow_name
        self._traces: list[FlowTrace] = list(traces)

    def add(self, trace: FlowTrace) -> None:
        """Append one execution's trace to the archive."""
        if trace.flow_name != self.flow_name:
            raise ValueError(
                f"trace of flow {trace.flow_name!r} cannot join archive of {self.flow_name!r}"
            )
        self._traces.append(trace)

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
        return statistics.fmean(t.cycle_time_ms for t in self._traces)

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
        return statistics.fmean(t.average_latency_per_tuple_ms for t in self._traces)

    def success_rate(self) -> float:
        """Fraction of runs that completed successfully."""
        self._require_traces()
        return sum(1 for t in self._traces if t.succeeded) / len(self._traces)

    def mean_lost_work_ms(self) -> float:
        """Mean amount of work repeated or lost due to failures."""
        self._require_traces()
        return statistics.fmean(t.lost_work_ms for t in self._traces)

    def mean_rows_loaded(self) -> float:
        """Mean number of rows delivered to the sinks."""
        self._require_traces()
        return statistics.fmean(t.rows_loaded for t in self._traces)

    def mean_defect_rates(self) -> dict[str, float]:
        """Mean null/duplicate/error rates of the loaded data across runs.

        Each trace's sinks are collected once; the per-defect sums run over
        them in the order of :attr:`FlowTrace.total_null_rows` and friends,
        so the rates equal those properties' quotients bit for bit.
        """
        self._require_traces()
        nulls, dups, errs = [], [], []
        for trace in self._traces:
            loaded = max(trace.rows_loaded, 1.0)
            sinks = _sink_traces(trace)
            nulls.append(sum(t.null_rows for t in sinks) / loaded)
            dups.append(sum(t.duplicate_rows for t in sinks) / loaded)
            errs.append(sum(t.error_rows for t in sinks) / loaded)
        return {
            "null_rate": statistics.fmean(nulls),
            "duplicate_rate": statistics.fmean(dups),
            "error_rate": statistics.fmean(errs),
        }

    def mean_monetary_cost(self) -> float:
        """Mean per-execution monetary cost."""
        self._require_traces()
        return statistics.fmean(t.monetary_cost for t in self._traces)

    def mean_freshness_lag_minutes(self) -> float:
        """Mean staleness of the loaded data in minutes."""
        self._require_traces()
        return statistics.fmean(t.freshness_lag_minutes for t in self._traces)

    def mean_update_frequency(self) -> float:
        """Mean source update frequency observed across runs."""
        self._require_traces()
        return statistics.fmean(t.update_frequency_per_day for t in self._traces)

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
