"""Unit tests for trace records and archives."""

import statistics

import pytest

from repro.simulator.engine import simulate_flow
from repro.simulator.traces import FlowTrace, OperationTrace, TraceArchive


def _trace(cycle=100.0, loaded=50.0, extracted=100.0, succeeded=True, lost=0.0,
           nulls=5.0, dups=2.0, errors=1.0, cost=0.5, name="flow"):
    trace = FlowTrace(flow_name=name)
    trace.operations["src"] = OperationTrace("src", "extract_table", rows_in=extracted,
                                             rows_out=extracted, time_ms=10.0)
    trace.operations["load"] = OperationTrace(
        "load", "load_table", rows_in=loaded, rows_out=loaded, time_ms=20.0,
        null_rows=nulls, duplicate_rows=dups, error_rows=errors,
    )
    trace.cycle_time_ms = cycle
    trace.rows_loaded = loaded
    trace.rows_extracted = extracted
    trace.succeeded = succeeded
    trace.lost_work_ms = lost
    trace.monetary_cost = cost
    trace.freshness_lag_minutes = 30.0
    trace.update_frequency_per_day = 24.0
    return trace


class TestFlowTrace:
    def test_operation_accessor(self):
        trace = _trace()
        assert trace.operation("src").kind == "extract_table"
        with pytest.raises(KeyError):
            trace.operation("missing")

    def test_defect_totals_only_count_sinks(self):
        trace = _trace(nulls=7.0, dups=3.0, errors=2.0)
        assert trace.total_null_rows == 7.0
        assert trace.total_duplicate_rows == 3.0
        assert trace.total_error_rows == 2.0

    def test_latency_per_tuple(self):
        trace = _trace(cycle=200.0, extracted=100.0)
        assert trace.average_latency_per_tuple_ms == pytest.approx(2.0)

    def test_latency_with_no_extraction(self):
        trace = _trace(extracted=0.0)
        assert trace.average_latency_per_tuple_ms == 0.0

    def test_selectivity_of_operation_trace(self):
        op = OperationTrace("x", "filter", rows_in=100, rows_out=25)
        assert op.selectivity == pytest.approx(0.25)
        assert OperationTrace("y", "filter").selectivity == 1.0


class TestTraceArchive:
    def test_empty_archive_rejects_aggregates(self):
        archive = TraceArchive("flow")
        assert len(archive) == 0
        with pytest.raises(ValueError):
            archive.mean_cycle_time_ms()

    def test_add_rejects_other_flow(self):
        archive = TraceArchive("flow")
        with pytest.raises(ValueError):
            archive.add(_trace(name="other"))

    def test_basic_aggregates(self):
        archive = TraceArchive("flow", [_trace(cycle=100.0), _trace(cycle=300.0)])
        assert archive.mean_cycle_time_ms() == pytest.approx(200.0)
        assert archive.mean_rows_loaded() == pytest.approx(50.0)
        assert archive.mean_monetary_cost() == pytest.approx(0.5)
        assert archive.mean_freshness_lag_minutes() == pytest.approx(30.0)
        assert archive.mean_update_frequency() == pytest.approx(24.0)

    def test_iteration_and_indexing(self):
        traces = [_trace(cycle=float(i)) for i in range(5)]
        archive = TraceArchive("flow", traces)
        assert archive[0].cycle_time_ms == 0.0
        assert len(list(archive)) == 5

    def test_percentiles(self):
        archive = TraceArchive("flow", [_trace(cycle=float(c)) for c in range(1, 101)])
        assert archive.percentile_cycle_time_ms(95) == pytest.approx(95.0, abs=2)
        with pytest.raises(ValueError):
            archive.percentile_cycle_time_ms(0)

    def test_success_rate(self):
        archive = TraceArchive(
            "flow", [_trace(succeeded=True), _trace(succeeded=False), _trace(succeeded=True)]
        )
        assert archive.success_rate() == pytest.approx(2 / 3)

    def test_lost_work(self):
        archive = TraceArchive("flow", [_trace(lost=10.0), _trace(lost=30.0)])
        assert archive.mean_lost_work_ms() == pytest.approx(20.0)

    def test_defect_rates(self):
        archive = TraceArchive("flow", [_trace(loaded=100.0, nulls=10.0, dups=5.0, errors=1.0)])
        rates = archive.mean_defect_rates()
        assert rates["null_rate"] == pytest.approx(0.1)
        assert rates["duplicate_rate"] == pytest.approx(0.05)
        assert rates["error_rate"] == pytest.approx(0.01)

    def test_operation_time_breakdown(self):
        archive = TraceArchive("flow", [_trace(), _trace()])
        breakdown = archive.operation_time_breakdown()
        assert breakdown["src"] == pytest.approx(10.0)
        assert breakdown["load"] == pytest.approx(20.0)

    def test_summary_keys(self):
        archive = TraceArchive("flow", [_trace()])
        summary = archive.summary()
        expected_keys = {
            "runs", "mean_cycle_time_ms", "mean_latency_per_tuple_ms", "success_rate",
            "mean_lost_work_ms", "mean_rows_loaded", "mean_monetary_cost",
            "null_rate", "duplicate_rate", "error_rate",
        }
        assert set(summary) == expected_keys
        assert summary["runs"] == 1.0

    def test_defect_rates_equal_the_per_trace_totals_bit_for_bit(self, branching_flow):
        archive = simulate_flow(branching_flow, runs=4, seed=9)
        rates = archive.mean_defect_rates()
        for key, total in (
            ("null_rate", "total_null_rows"),
            ("duplicate_rate", "total_duplicate_rows"),
            ("error_rate", "total_error_rows"),
        ):
            expected = statistics.fmean(
                getattr(trace, total) / max(trace.rows_loaded, 1.0) for trace in archive
            )
            assert rates[key] == expected
