"""The lowered simulator against the graph-walking reference engine.

:class:`ETLSimulator` lowers a flow once into flat per-operation records
and memoizes each failing operation's recovery plan;
``tests/reference_simulator.py`` walks the graph on every run.  For
random DAGs (split, router and partition fan-out, checkpoints with
failure rates high enough that failures occur, zero-row sources, the
``resource_tier`` / ``encryption`` / ``access_control`` /
``schedule_frequency_per_day`` annotations, edges inserted in an order
unrelated to the topological one) and for random pattern chains, every
:class:`FlowTrace` must be ``==`` to the reference's -- operations,
failures and lost work included -- and print the same ``repr``, so not
even an int/float difference slips through.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.properties import OperationProperties
from repro.simulator.engine import ETLSimulator, SimulationConfig
from repro.simulator.resources import ResourceModel
from repro.workloads import RandomFlowConfig, random_flow
from tests.conftest import set_properties
from tests.property.test_cow_equivalence import _apply_sequence, _pick_sequences
from tests.reference_simulator import ReferenceSimulator

_SOURCE_KINDS = (
    OperationKind.EXTRACT_TABLE,
    OperationKind.EXTRACT_FILE,
    OperationKind.EXTRACT_SAVEPOINT,
)

_INNER_KINDS = (
    OperationKind.FILTER,
    OperationKind.DERIVE,
    OperationKind.JOIN,
    OperationKind.UNION,
    OperationKind.AGGREGATE,
    OperationKind.SPLIT,
    OperationKind.ROUTER,
    OperationKind.PARTITION,
    OperationKind.REPLICATE,
    OperationKind.DEDUPLICATE,
    OperationKind.FILTER_NULLS,
    OperationKind.CROSSCHECK,
    OperationKind.VALIDATE,
    OperationKind.CLEANSE,
    OperationKind.CHECKPOINT,
    OperationKind.CHECKPOINT,
    OperationKind.LOAD_TABLE,
    OperationKind.LOAD_FILE,
)

_rates = st.sampled_from([0.0, 0.0, 0.01, 0.05, 0.2, 0.5, 0.9])

_properties = st.builds(
    OperationProperties,
    cost_per_tuple=st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.3]),
    fixed_cost=st.sampled_from([0.0, 1.0, 12.5]),
    selectivity=st.sampled_from([0.0, 0.3, 0.75, 1.0, 1.5]),
    error_rate=_rates,
    null_rate=_rates,
    duplicate_rate=_rates,
    failure_rate=st.sampled_from([0.0, 0.0, 0.1, 0.4, 0.8]),
    memory_per_tuple=st.sampled_from([0.0, 0.1, 2.0]),
    freshness_lag=st.sampled_from([0.0, 15.0, 600.0]),
    update_frequency=st.sampled_from([1.0, 24.0, 96.0]),
    monetary_cost=st.sampled_from([0.0, 0.1, 3.0]),
)

_annotations = st.fixed_dictionaries(
    {},
    optional={
        "resource_tier": st.sampled_from(["small", "medium", "large", "xlarge"]),
        "encryption": st.booleans(),
        "access_control": st.booleans(),
        "schedule_frequency_per_day": st.sampled_from([-2.0, 0.0, 0.5, 1.0, 24.0, 96.0]),
    },
)


@st.composite
def random_dags(draw):
    """A random ETL DAG whose edges are inserted in a shuffled order."""
    flow = ETLGraph(name="oracle")
    sources = draw(st.integers(min_value=1, max_value=3))
    inner = draw(st.integers(min_value=1, max_value=12))
    ids = []
    for index in range(sources + inner):
        kind = draw(st.sampled_from(_SOURCE_KINDS if index < sources else _INNER_KINDS))
        config = {"parallelism": draw(st.integers(min_value=1, max_value=20))}
        if index < sources:
            config["rows"] = draw(st.sampled_from([0, 0, 1, 250, 10_000]))
        op = Operation(
            kind=kind,
            op_id=f"op_{index:02d}",
            config=config,
            properties=draw(_properties),
        )
        flow.add_operation(op)
        ids.append(op.op_id)
    edges = []
    for index in range(sources, sources + inner):
        fan_in = draw(st.integers(min_value=1, max_value=min(3, index)))
        preds = draw(
            st.lists(
                st.sampled_from(ids[:index]), min_size=1, max_size=fan_in, unique=True
            )
        )
        edges.extend((pred, ids[index]) for pred in preds)
    for source, target in draw(st.permutations(edges)):
        flow.add_edge(source, target)
    flow.annotations.update(draw(_annotations))
    return flow


def _assert_same_archives(flow, config):
    lowered = ETLSimulator(flow, config).run()
    reference = ReferenceSimulator(flow, config).run()
    assert len(lowered) == len(reference) == config.runs
    for mine, theirs in zip(lowered, reference):
        assert mine == theirs
        assert repr(mine) == repr(theirs)
    return lowered


class TestSimulatorOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        flow=random_dags(),
        seed=st.integers(min_value=0, max_value=10_000),
        runs=st.integers(min_value=1, max_value=4),
        jitter=st.sampled_from([0.0, 0.05, 0.3]),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_random_dags(self, flow, seed, runs, jitter, workers):
        config = SimulationConfig(
            runs=runs,
            seed=seed,
            resources=ResourceModel(workers=workers, speed=1.3),
            volume_jitter=jitter,
        )
        _assert_same_archives(flow, config)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=20),
        picks=_pick_sequences,
        failing=st.lists(st.integers(min_value=0, max_value=1_000), max_size=4),
    )
    def test_random_pattern_chains(self, seed, operations, picks, failing):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        _, chain = _apply_sequence(flow, picks)
        result = chain[-1]
        ids = sorted(result.operation_ids())
        for number in failing:
            set_properties(result, ids[number % len(ids)], failure_rate=0.6)
        for graph in (flow, result):
            _assert_same_archives(graph, SimulationConfig(runs=3, seed=seed))

    def test_failures_and_recoveries_are_exercised(self):
        """The strategies reach the branches the oracle is meant to pin."""
        flow = ETLGraph(name="checkpointed")
        flow.add_operation(
            Operation(OperationKind.EXTRACT_TABLE, op_id="src", config={"rows": 500})
        )
        flow.add_operation(
            Operation(
                OperationKind.PARTITION,
                op_id="part",
                properties=OperationProperties(failure_rate=0.5),
            )
        )
        flow.add_operation(Operation(OperationKind.CHECKPOINT, op_id="cp"))
        for name in ("left", "right"):
            flow.add_operation(
                Operation(
                    OperationKind.DERIVE,
                    op_id=name,
                    properties=OperationProperties(failure_rate=0.7, cost_per_tuple=0.2),
                )
            )
        flow.add_operation(Operation(OperationKind.LOAD_TABLE, op_id="load"))
        for source, target in [
            ("src", "cp"),
            ("cp", "part"),
            ("part", "left"),
            ("part", "right"),
            ("right", "load"),
            ("left", "load"),
        ]:
            flow.add_edge(source, target)
        archive = _assert_same_archives(flow, SimulationConfig(runs=20, seed=3))
        events = [event for trace in archive for event in trace.failures]
        assert any(event.recovered_from == "cp" for event in events)
        assert any(trace.lost_work_ms > 0 for trace in archive)
        assert all(
            trace.operation("left").rows_in == trace.operation("part").rows_out / 2
            for trace in archive
        )
