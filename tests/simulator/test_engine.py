"""Unit and behavioural tests for the ETL runtime simulator."""

import pytest

from repro.etl.builder import FlowBuilder
from repro.etl.operations import OperationKind
from repro.etl.schema import DataType, Field, Schema
from repro.simulator.engine import ETLSimulator, SimulationConfig, SimulationMemo, simulate_flow
from repro.simulator.resources import ResourceModel
from tests.conftest import set_config, set_properties


def _schema():
    return Schema.of(
        Field("id", DataType.INTEGER, nullable=False, key=True),
        Field("value", DataType.DECIMAL),
    )


def _simple_flow(rows=1_000, selectivity=0.5, null_rate=0.2, duplicate_rate=0.1, error_rate=0.05):
    builder = FlowBuilder("sim")
    src = builder.extract_table(
        "src", schema=_schema(), rows=rows, null_rate=null_rate,
        duplicate_rate=duplicate_rate, error_rate=error_rate, freshness_lag=60.0,
    )
    builder.filter("flt", predicate="p", selectivity=selectivity, after=src)
    builder.load_table("load")
    return builder.build()


class TestBasicSimulation:
    def test_reproducible_with_same_seed(self, linear_flow):
        a = simulate_flow(linear_flow, runs=3, seed=11)
        b = simulate_flow(linear_flow, runs=3, seed=11)
        assert a.summary() == b.summary()

    def test_different_seeds_differ(self, linear_flow):
        a = simulate_flow(linear_flow, runs=3, seed=1)
        b = simulate_flow(linear_flow, runs=3, seed=2)
        assert a.mean_cycle_time_ms() != b.mean_cycle_time_ms()

    def test_requested_number_of_runs(self, linear_flow):
        archive = simulate_flow(linear_flow, runs=4, seed=1)
        assert len(archive) == 4

    def test_every_operation_is_traced(self, branching_flow):
        trace = ETLSimulator(branching_flow, SimulationConfig(runs=1, seed=1)).run_once()
        assert set(trace.operations) == set(branching_flow.operation_ids())

    def test_rows_flow_through_selectivities(self):
        flow = _simple_flow(rows=1_000, selectivity=0.5)
        trace = ETLSimulator(flow, SimulationConfig(runs=1, seed=1, volume_jitter=0.0)).run_once()
        flt = next(t for t in trace.operations.values() if t.kind == "filter")
        assert flt.rows_out == pytest.approx(flt.rows_in * 0.5)
        load = next(t for t in trace.operations.values() if t.kind == "load_table")
        assert trace.rows_loaded == pytest.approx(load.rows_out)
        assert trace.rows_extracted == pytest.approx(1_000.0)

    def test_cycle_time_positive_and_contains_critical_path(self, linear_flow):
        trace = ETLSimulator(linear_flow, SimulationConfig(runs=1, seed=2)).run_once()
        assert trace.cycle_time_ms >= trace.critical_path_ms > 0
        total_time = sum(t.time_ms for t in trace.operations.values())
        assert trace.critical_path_ms <= total_time + 1e-9

    def test_monetary_cost_positive(self, linear_flow):
        archive = simulate_flow(linear_flow, runs=2, seed=2)
        assert archive.mean_monetary_cost() > 0


class TestDefectPropagation:
    def test_defects_originate_at_sources(self):
        flow = _simple_flow(null_rate=0.2, duplicate_rate=0.1, error_rate=0.05)
        trace = ETLSimulator(flow, SimulationConfig(runs=1, seed=3)).run_once()
        src = next(t for t in trace.operations.values() if t.kind == "extract_table")
        assert src.null_rows > 0
        assert src.duplicate_rows > 0
        assert src.error_rows > 0

    def test_filter_nulls_removes_null_rows(self):
        builder = FlowBuilder("dq")
        src = builder.extract_table("src", schema=_schema(), rows=1_000, null_rate=0.3)
        builder.add(OperationKind.FILTER_NULLS, "fn", after=src)
        builder.load_table("load")
        flow = builder.build()
        trace = ETLSimulator(flow, SimulationConfig(runs=1, seed=3)).run_once()
        assert trace.total_null_rows == 0
        load = next(t for t in trace.operations.values() if t.kind == "load_table")
        src_trace = next(t for t in trace.operations.values() if t.kind == "extract_table")
        assert load.rows_out == pytest.approx(src_trace.rows_out - src_trace.null_rows)

    def test_deduplicate_removes_duplicates(self):
        builder = FlowBuilder("dq")
        src = builder.extract_table("src", schema=_schema(), rows=1_000, duplicate_rate=0.2)
        builder.add(OperationKind.DEDUPLICATE, "dd", after=src)
        builder.load_table("load")
        flow = builder.build()
        trace = ETLSimulator(flow, SimulationConfig(runs=1, seed=3)).run_once()
        assert trace.total_duplicate_rows == 0

    def test_crosscheck_corrects_most_errors(self):
        builder = FlowBuilder("dq")
        src = builder.extract_table("src", schema=_schema(), rows=1_000, error_rate=0.2)
        builder.add(OperationKind.CROSSCHECK, "cc", after=src)
        builder.load_table("load")
        flow = builder.build()
        with_cc = ETLSimulator(flow, SimulationConfig(runs=1, seed=3)).run_once()

        plain = _simple_flow(rows=1_000, selectivity=1.0, error_rate=0.2)
        without = ETLSimulator(plain, SimulationConfig(runs=1, seed=3)).run_once()
        assert with_cc.total_error_rows < without.total_error_rows

    def test_defects_never_exceed_rows(self, branching_flow):
        trace = ETLSimulator(branching_flow, SimulationConfig(runs=1, seed=5)).run_once()
        for op_trace in trace.operations.values():
            assert op_trace.null_rows <= op_trace.rows_out + 1e-9
            assert op_trace.duplicate_rows <= op_trace.rows_out + 1e-9
            assert op_trace.error_rows <= op_trace.rows_out + 1e-9


class TestPerformanceModel:
    def test_parallelism_reduces_time(self):
        flow = _simple_flow(rows=10_000, selectivity=1.0)
        flt = next(op for op in flow.operations() if op.kind is OperationKind.FILTER)
        set_properties(flow, flt.op_id, cost_per_tuple=0.05)
        base = ETLSimulator(flow, SimulationConfig(runs=1, seed=7, volume_jitter=0.0)).run_once()

        parallel = flow.copy()
        set_config(parallel, flt.op_id, parallelism=4)
        fast = ETLSimulator(parallel, SimulationConfig(runs=1, seed=7, volume_jitter=0.0)).run_once()
        assert fast.operations[flt.op_id].time_ms < base.operations[flt.op_id].time_ms
        assert fast.cycle_time_ms < base.cycle_time_ms

    def test_parallelism_capped_by_resource_workers(self):
        flow = _simple_flow(rows=10_000, selectivity=1.0)
        flt = next(op for op in flow.operations() if op.kind is OperationKind.FILTER)
        set_properties(flow, flt.op_id, cost_per_tuple=0.05)
        set_config(flow, flt.op_id, parallelism=16)
        config = SimulationConfig(
            runs=1, seed=7, volume_jitter=0.0, resources=ResourceModel(workers=2)
        )
        trace = ETLSimulator(flow, config).run_once()
        assert trace.operations[flt.op_id].parallelism == 2

    def test_faster_resources_lower_cycle_time(self, linear_flow):
        slow = SimulationConfig(runs=1, seed=7, volume_jitter=0.0,
                                resources=ResourceModel(speed=0.5))
        fast = SimulationConfig(runs=1, seed=7, volume_jitter=0.0,
                                resources=ResourceModel(speed=2.0))
        slow_trace = ETLSimulator(linear_flow, slow).run_once()
        fast_trace = ETLSimulator(linear_flow, fast).run_once()
        assert fast_trace.critical_path_ms < slow_trace.critical_path_ms

    def test_resource_tier_annotation_overrides_config(self, linear_flow):
        annotated = linear_flow.copy()
        annotated.annotations["resource_tier"] = "xlarge"
        base = ETLSimulator(linear_flow, SimulationConfig(runs=1, seed=7, volume_jitter=0.0)).run_once()
        upgraded = ETLSimulator(annotated, SimulationConfig(runs=1, seed=7, volume_jitter=0.0)).run_once()
        assert upgraded.critical_path_ms < base.critical_path_ms
        assert upgraded.monetary_cost > 0

    def test_encryption_annotation_adds_overhead(self, linear_flow):
        encrypted = linear_flow.copy()
        encrypted.annotations["encryption"] = True
        base = ETLSimulator(linear_flow, SimulationConfig(runs=1, seed=7, volume_jitter=0.0)).run_once()
        enc = ETLSimulator(encrypted, SimulationConfig(runs=1, seed=7, volume_jitter=0.0)).run_once()
        assert enc.critical_path_ms > base.critical_path_ms


class TestReliabilityAndFreshness:
    def test_checkpoint_improves_success_rate(self):
        def build(with_checkpoint: bool):
            builder = FlowBuilder("rel")
            # Expensive upstream work that a checkpoint protects from repetition.
            src = builder.extract_table(
                "src", schema=_schema(), rows=1_000, cost_per_tuple=0.2,
            )
            mid = builder.filter("flt", predicate="p", selectivity=0.9, after=src,
                                 cost_per_tuple=0.05)
            if with_checkpoint:
                mid = builder.add(OperationKind.CHECKPOINT, "cp", after=mid)
            derive = builder.derive("fragile", cost_per_tuple=0.005, after=mid)
            builder.set_properties(derive, failure_rate=0.5)
            builder.load_table("load", after=derive)
            return builder.build()

        runs = 40
        base = simulate_flow(build(False), runs=runs, seed=13)
        protected = simulate_flow(build(True), runs=runs, seed=13)
        assert protected.success_rate() > base.success_rate()
        assert protected.mean_lost_work_ms() < base.mean_lost_work_ms()

    def test_schedule_frequency_affects_freshness_and_cost(self, linear_flow):
        frequent = linear_flow.copy()
        frequent.annotations["schedule_frequency_per_day"] = 96.0
        rare = linear_flow.copy()
        rare.annotations["schedule_frequency_per_day"] = 4.0
        frequent_archive = simulate_flow(frequent, runs=2, seed=5)
        rare_archive = simulate_flow(rare, runs=2, seed=5)
        assert frequent_archive.mean_freshness_lag_minutes() < rare_archive.mean_freshness_lag_minutes()
        assert frequent_archive.mean_monetary_cost() > rare_archive.mean_monetary_cost()

    def test_freshness_includes_source_lag(self):
        flow = _simple_flow()
        archive = simulate_flow(flow, runs=1, seed=5)
        assert archive.mean_freshness_lag_minutes() >= 60.0


class TestRunCountValidation:
    @pytest.mark.parametrize("runs", [0, -2])
    def test_config_rejects_fewer_than_one_run(self, runs):
        with pytest.raises(ValueError, match="runs"):
            SimulationConfig(runs=runs)

    def test_simulate_flow_rejects_zero_runs(self, linear_flow):
        with pytest.raises(ValueError, match="runs"):
            simulate_flow(linear_flow, runs=0)

    def test_one_run_is_accepted(self, linear_flow):
        assert len(simulate_flow(linear_flow, runs=1)) == 1


class TestLowering:
    def test_flow_mutated_after_construction_needs_a_new_simulator(self, linear_flow):
        config = SimulationConfig(runs=1, seed=4)
        simulator = ETLSimulator(linear_flow, config)
        set_properties(linear_flow, "flt", selectivity=0.1)
        stale = simulator.run_once()
        fresh = ETLSimulator(linear_flow, config).run_once()
        assert stale.operation("flt").rows_out > fresh.operation("flt").rows_out


class TestSharedMemo:
    """A :class:`SimulationMemo` changes no trace, whatever shares it."""

    def test_one_memo_serves_any_mix_of_configurations(self, linear_flow, branching_flow):
        configs = [
            SimulationConfig(runs=3, seed=1),
            SimulationConfig(runs=3, seed=1, volume_jitter=0.3),
            SimulationConfig(runs=2, seed=2),
            SimulationConfig(runs=4, seed=1, resources=ResourceModel(workers=1, speed=2.0)),
        ]
        memo = SimulationMemo()
        for config in configs:
            for flow in (linear_flow, branching_flow):
                shared = ETLSimulator(flow, config, memo).run()
                alone = ETLSimulator(flow, config).run()
                assert list(shared) == list(alone)
                assert repr(list(shared)) == repr(list(alone))

    def test_run_once_continues_one_stream(self, branching_flow):
        config = SimulationConfig(runs=3, seed=5)
        memo = SimulationMemo()
        ahead = ETLSimulator(branching_flow, config, memo)
        ahead.run()
        behind = ETLSimulator(branching_flow, config, memo)
        stepped = [behind.run_once() for _ in range(4)]
        expected = list(ETLSimulator(branching_flow, SimulationConfig(runs=4, seed=5)).run())
        assert stepped == expected

    def test_unseeded_draws_are_never_shared(self, linear_flow):
        memo = SimulationMemo()
        ETLSimulator(linear_flow, SimulationConfig(runs=1, seed=None), memo).run()
        assert not memo._bases
