"""Behavioural tests for the concrete quality measures."""

import pytest

from repro.etl.builder import FlowBuilder
from repro.etl.operations import OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.quality import data_quality, manageability, performance, reliability, cost
from repro.simulator.engine import simulate_flow

from tests.conftest import set_config, simulate


def _schema():
    return Schema.of(
        Field("id", DataType.INTEGER, nullable=False, key=True),
        Field("value", DataType.DECIMAL),
    )


class TestPerformanceMeasures:
    def test_cycle_time_matches_archive(self, linear_flow):
        archive = simulate(linear_flow)
        measure = performance.ProcessCycleTime()
        assert measure.compute(linear_flow, archive) == pytest.approx(
            archive.mean_cycle_time_ms()
        )

    def test_latency_per_tuple(self, linear_flow):
        archive = simulate(linear_flow)
        value = performance.AverageLatencyPerTuple().compute(linear_flow, archive)
        assert value == pytest.approx(archive.mean_latency_per_tuple_ms())
        assert value > 0

    def test_throughput_positive_and_consistent(self, linear_flow):
        archive = simulate(linear_flow)
        throughput = performance.Throughput().compute(linear_flow, archive)
        expected = archive.mean_rows_loaded() / (archive.mean_cycle_time_ms() / 1000.0)
        assert throughput == pytest.approx(expected)

    def test_tail_cycle_time_at_least_mean_like(self, linear_flow):
        archive = simulate(linear_flow, runs=10)
        p95 = performance.TailCycleTime().compute(linear_flow, archive)
        assert p95 >= archive.mean_cycle_time_ms() * 0.5


class TestDataQualityMeasures:
    def _flow_with_defects(self, cleanser: OperationKind | None = None):
        builder = FlowBuilder("dq")
        src = builder.extract_table(
            "src", schema=_schema(), rows=2_000, null_rate=0.2, duplicate_rate=0.1,
            error_rate=0.1, freshness_lag=120.0, update_frequency=24.0,
        )
        previous = src
        if cleanser is not None:
            previous = builder.add(cleanser, "cleanser", after=src)
        builder.load_table("load", after=previous)
        return builder.build()

    def test_null_rate_reflects_cleansing(self):
        dirty = self._flow_with_defects()
        clean = self._flow_with_defects(OperationKind.FILTER_NULLS)
        dirty_rate = data_quality.NullRate().compute(dirty, simulate(dirty))
        clean_rate = data_quality.NullRate().compute(clean, simulate(clean))
        assert dirty_rate > clean_rate
        assert clean_rate == pytest.approx(0.0, abs=1e-9)

    def test_duplicate_rate_reflects_deduplication(self):
        dirty = self._flow_with_defects()
        clean = self._flow_with_defects(OperationKind.DEDUPLICATE)
        assert data_quality.DuplicateRate().compute(dirty, simulate(dirty)) > \
            data_quality.DuplicateRate().compute(clean, simulate(clean))

    def test_error_rate_reflects_crosscheck(self):
        dirty = self._flow_with_defects()
        checked = self._flow_with_defects(OperationKind.CROSSCHECK)
        assert data_quality.ErrorRate().compute(dirty, simulate(dirty)) > \
            data_quality.ErrorRate().compute(checked, simulate(checked))

    def test_freshness_age_and_score(self):
        flow = self._flow_with_defects()
        archive = simulate(flow)
        age = data_quality.FreshnessAge().compute(flow, archive)
        score = data_quality.FreshnessScore().compute(flow, archive)
        assert age >= 120.0
        assert 0.0 < score <= 1.0

    def test_freshness_score_decreases_with_age(self):
        builder = FlowBuilder("stale")
        builder.extract_table(
            "src", schema=_schema(), rows=100, freshness_lag=10_000.0, update_frequency=24.0,
        )
        builder.load_table("load")
        stale_flow = builder.build()
        fresh_flow = self._flow_with_defects()
        stale = data_quality.FreshnessScore().compute(stale_flow, simulate(stale_flow))
        fresh = data_quality.FreshnessScore().compute(fresh_flow, simulate(fresh_flow))
        assert stale < fresh

    def test_cleansing_coverage_static_measure(self):
        dirty = self._flow_with_defects()
        clean = self._flow_with_defects(OperationKind.FILTER_NULLS)
        coverage = data_quality.CleansingCoverage()
        assert coverage.compute(dirty) == 0.0
        assert coverage.compute(clean) == 1.0

    def test_defect_rate_normalisation_bounded(self):
        measure = data_quality.ErrorRate()
        assert measure.normalize(0.0) == 1.0
        assert measure.normalize(1.0) == 0.0
        assert measure.normalize(2.0) == 0.0


class TestReliabilityMeasures:
    def _fragile_flow(self, with_checkpoint: bool):
        builder = FlowBuilder("fragile")
        src = builder.extract_table("src", schema=_schema(), rows=1_000, cost_per_tuple=0.1)
        mid = builder.filter("flt", predicate="p", selectivity=0.9, after=src)
        if with_checkpoint:
            mid = builder.add(OperationKind.CHECKPOINT, "cp", after=mid)
        derive = builder.derive("fragile_derive", cost_per_tuple=0.01, after=mid)
        builder.set_properties(derive, failure_rate=0.4)
        builder.load_table("load", after=derive)
        return builder.build()

    def test_success_rate_improves_with_checkpoint(self):
        base = self._fragile_flow(False)
        protected = self._fragile_flow(True)
        base_rate = reliability.SuccessRate().compute(base, simulate(base, runs=30, seed=3))
        protected_rate = reliability.SuccessRate().compute(
            protected, simulate(protected, runs=30, seed=3)
        )
        assert protected_rate > base_rate

    def test_recovery_coverage_static(self):
        assert reliability.RecoveryCoverage().compute(self._fragile_flow(False)) == 0.0
        covered = reliability.RecoveryCoverage().compute(self._fragile_flow(True))
        assert 0.0 < covered < 1.0

    def test_flow_failure_probability(self):
        flow = self._fragile_flow(False)
        probability = reliability.FlowFailureProbability().compute(flow)
        assert probability == pytest.approx(0.4)

    def test_mean_lost_work_non_negative(self, linear_flow):
        archive = simulate(linear_flow, runs=5)
        assert reliability.MeanLostWork().compute(linear_flow, archive) >= 0.0


class TestManageabilityMeasures:
    def test_longest_path(self, linear_flow, branching_flow):
        assert manageability.LongestPathLength().compute(linear_flow) == 3.0
        assert manageability.LongestPathLength().compute(branching_flow) >= 4.0

    def test_coupling(self, linear_flow, branching_flow):
        assert manageability.Coupling().compute(linear_flow) == pytest.approx(3 / 4)
        assert manageability.Coupling().compute(branching_flow) > \
            manageability.Coupling().compute(linear_flow)

    def test_merge_elements(self, linear_flow, branching_flow):
        assert manageability.MergeElementCount().compute(linear_flow) == 0.0
        assert manageability.MergeElementCount().compute(branching_flow) >= 1.0

    def test_operation_count(self, linear_flow):
        assert manageability.OperationCount().compute(linear_flow) == float(
            linear_flow.node_count
        )


class TestCostMeasures:
    def test_monetary_cost_from_trace(self, linear_flow):
        archive = simulate(linear_flow)
        value = cost.MonetaryCostPerExecution().compute(linear_flow, archive)
        assert value == pytest.approx(archive.mean_monetary_cost())

    def test_resource_footprint_static(self, linear_flow, branching_flow):
        footprint = cost.ResourceFootprint()
        assert footprint.compute(linear_flow) > 0
        # a flow with more operations over comparable volumes costs more
        assert footprint.compute(branching_flow) > 0

    def test_resource_footprint_reflects_parallelism(self, linear_flow):
        parallel = linear_flow.copy()
        derive = next(op for op in parallel.operations() if op.kind is OperationKind.DERIVE)
        set_config(parallel, derive.op_id, parallelism=4)
        footprint = cost.ResourceFootprint()
        assert footprint.compute(parallel) < footprint.compute(linear_flow)
