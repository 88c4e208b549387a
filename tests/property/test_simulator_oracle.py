"""The content-addressed simulator against the graph-walking reference engine.

:class:`ETLSimulator` compiles a flow against a :class:`SimulationMemo`
that interns per-operation row/defect states and shares random draws
across flows, and memoizes each failing operation's recovery plan;
``tests/reference_simulator.py`` walks the graph on every run.  For
random DAGs (split, router and partition fan-out, checkpoints with
failure rates high enough that failures occur, zero-row sources, the
``resource_tier`` / ``encryption`` / ``access_control`` /
``schedule_frequency_per_day`` annotations, edges inserted in an order
unrelated to the topological one) and for random pattern chains, every
:class:`FlowTrace` must be ``==`` to the reference's -- operations,
failures and lost work included -- and print the same ``repr``, so not
even an int/float difference slips through.

The same holds when many flows share one memo: every alternative of the
twelve planning cases in plan order, and random pattern chains with
annotation, fan-out, removal and zero-row variants in shuffled order,
each simulated through one :meth:`QualityEstimator.shared_simulation`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Planner, ProcessingConfiguration
from repro.etl.graph import ETLGraph
from repro.etl.operations import Operation, OperationKind
from repro.etl.properties import OperationProperties
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.simulator.engine import ETLSimulator, SimulationConfig
from repro.simulator.resources import ResourceModel
from repro.workloads import RandomFlowConfig, random_flow
from tests.conftest import set_config, set_properties, twelve_cases
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


def _assert_matches_reference(flow, archive, config):
    reference = ReferenceSimulator(flow, config).run()
    assert len(archive) == len(reference) == config.runs
    for mine, theirs in zip(archive, reference):
        assert mine == theirs
        assert repr(mine) == repr(theirs)


def _assert_same_archives(flow, config):
    archive = ETLSimulator(flow, config).run()
    _assert_matches_reference(flow, archive, config)
    return archive


def _reference_config(settings: EstimationSettings) -> SimulationConfig:
    """The simulation an estimator with ``settings`` runs, for the reference engine."""
    return SimulationConfig(
        runs=settings.simulation_runs,
        seed=settings.seed,
        resources=settings.resources or ResourceModel(),
    )


def _variants(flow, data):
    """Forks of ``flow`` that change what a shared memo may reuse.

    Annotations (times only), one source's row count (its random draws
    and every state downstream), a partitioning operation's fan-out (the
    shares of all its successors), and one operation removed with its
    inputs bridged to its outputs (every state downstream of it).
    """
    variants = []
    resized = flow.copy()
    source = data.draw(st.sampled_from(sorted(op.op_id for op in flow.sources())), label="source")
    set_config(resized, source, rows=data.draw(st.sampled_from([0, 1, 250]), label="rows"))
    variants.append(resized)

    annotated = flow.copy()
    for key, value in data.draw(_annotations, label="annotations").items():
        annotated.set_annotation(key, value)
    variants.append(annotated)

    order = flow.topological_ids()
    fanned = flow.copy()
    routers = [op_id for op_id in order if fanned.out_degree(op_id) >= 2]
    if routers:
        router = data.draw(st.sampled_from(routers), label="router")
        kind = fanned.operation(router).kind
        if kind not in (OperationKind.SPLIT, OperationKind.ROUTER, OperationKind.PARTITION):
            fanned.update_operation(router, kind=OperationKind.PARTITION)
        reachable = fanned.upstream_of(router) | {router} | set(fanned.successor_ids(router))
        targets = [op_id for op_id in order if op_id not in reachable]
        if targets:
            fanned.add_edge(router, data.draw(st.sampled_from(targets), label="new target"))
        variants.append(fanned)

    inner = [
        op_id
        for op_id in order
        if flow.in_degree(op_id) and flow.out_degree(op_id)
    ]
    if inner:
        removed = data.draw(st.sampled_from(inner), label="removed")
        trimmed = flow.copy()
        preds = trimmed.predecessor_ids(removed)
        succs = trimmed.successor_ids(removed)
        trimmed.remove_operation(removed)
        for pred in preds:
            for succ in succs:
                if not trimmed.has_edge(pred, succ):
                    trimmed.add_edge(pred, succ)
        variants.append(trimmed)
    return variants


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

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        operations=st.integers(min_value=8, max_value=16),
        picks=_pick_sequences,
        runs=st.sampled_from([1, 5]),
        zero_row_source=st.booleans(),
        data=st.data(),
    )
    def test_pattern_chains_share_one_memo_in_any_order(
        self, seed, operations, picks, runs, zero_row_source, data
    ):
        flow = random_flow(RandomFlowConfig(operations=operations, sources=2, seed=seed))
        if zero_row_source:
            set_config(flow, flow.sources()[0].op_id, rows=0)
        for op_id in data.draw(
            st.lists(st.sampled_from(sorted(flow.operation_ids())), max_size=3), label="failing"
        ):
            set_properties(flow, op_id, failure_rate=0.6)
        _, chain = _apply_sequence(flow, picks)
        flows = [flow, *chain]
        for member in list(flows):
            flows.extend(_variants(member, data))
        flows = data.draw(st.permutations(flows), label="order")
        settings_ = EstimationSettings(simulation_runs=runs, seed=seed)
        estimator = QualityEstimator(settings=settings_)
        with estimator.shared_simulation():
            archives = [estimator.simulate(member) for member in flows]
        config = _reference_config(settings_)
        for member, archive in zip(flows, archives):
            _assert_matches_reference(member, archive, config)

    @pytest.mark.parametrize(("build", "budget"), twelve_cases())
    def test_twelve_case_alternatives_share_one_memo(self, build, budget):
        """Every alternative of a plan, in plan order, through the plan's memo."""
        flow = build()
        planner = Planner(configuration=ProcessingConfiguration(pattern_budget=budget))
        estimator = planner.estimator
        flows = [flow, *(alternative.flow for alternative in planner.stream_alternatives(flow))]
        with estimator.shared_simulation():
            archives = [estimator.simulate(member) for member in flows]
        config = _reference_config(estimator.settings)
        for member, archive in zip(flows, archives):
            _assert_matches_reference(member, archive, config)

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
