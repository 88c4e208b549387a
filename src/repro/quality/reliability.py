"""Reliability measures (recoverability, success rate, lost work)."""

from __future__ import annotations

from repro.etl.graph import ETLGraph
from repro.etl.operations import OperationKind
from repro.quality.framework import Measure, QualityCharacteristic
from repro.simulator.traces import TraceArchive


class SuccessRate(Measure):
    """Fraction of simulated executions that completed without an unrecoverable failure."""

    name = "success_rate"
    description = "Executions completing successfully"
    characteristic = QualityCharacteristic.RELIABILITY
    higher_is_better = True
    unit = "fraction"
    requires_trace = True
    weight = 2.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        assert archive is not None
        return archive.success_rate()

    def normalize(self, value: float) -> float:
        return max(0.0, min(1.0, value))


class MeanLostWork(Measure):
    """Mean processing time repeated or lost because of failures, per execution."""

    name = "mean_lost_work_ms"
    description = "Work repeated after failures"
    characteristic = QualityCharacteristic.RELIABILITY
    higher_is_better = False
    unit = "ms"
    requires_trace = True
    scale = 10_000.0
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        assert archive is not None
        return archive.mean_lost_work_ms()


class RecoveryCoverage(Measure):
    """Static measure: fraction of processing work protected by a checkpoint.

    An operation is *protected* when a checkpoint lies upstream of it, so a
    failure of the operation restarts from the checkpoint instead of from
    the sources.  The measure weights operations by their expected
    processing cost, so protecting the expensive tail of the flow counts
    more than protecting cheap early operations -- matching the paper's
    heuristic of placing checkpoints after the most complex operations.
    """

    name = "recovery_coverage"
    description = "Cost-weighted share of operations protected by checkpoints"
    characteristic = QualityCharacteristic.RELIABILITY
    higher_is_better = True
    unit = "fraction"
    requires_trace = False
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        checkpoints = {
            op.op_id for op in flow.operations_of_kind(OperationKind.CHECKPOINT)
        }
        if not checkpoints:
            return 0.0
        # "A checkpoint lies upstream", for every operation in one forward
        # pass over the topological order.
        protected: dict[str, bool] = {}
        for op_id in flow.topological_ids():
            protected[op_id] = any(
                pred in checkpoints or protected[pred] for pred in flow.predecessor_ids(op_id)
            )
        total_weight = 0.0
        protected_weight = 0.0
        for op in flow.operations():
            rows = float(op.config.get("rows", 1000))
            weight = op.properties.fixed_cost + op.properties.cost_per_tuple * rows
            total_weight += weight
            if protected[op.op_id]:
                protected_weight += weight
        if total_weight <= 0:
            return 0.0
        return protected_weight / total_weight

    def normalize(self, value: float) -> float:
        return max(0.0, min(1.0, value))


class FlowFailureProbability(Measure):
    """Static measure: probability that at least one operation fails in a run."""

    name = "flow_failure_probability"
    description = "Probability of at least one operation failure per execution"
    characteristic = QualityCharacteristic.RELIABILITY
    higher_is_better = False
    unit = "probability"
    requires_trace = False
    weight = 0.5

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        survival = 1.0
        for op in flow.operations():
            survival *= 1.0 - op.properties.failure_rate
        return 1.0 - survival

    def normalize(self, value: float) -> float:
        return max(0.0, 1.0 - min(value, 1.0))


MEASURES = (
    SuccessRate(),
    MeanLostWork(),
    RecoveryCoverage(),
    FlowFailureProbability(),
)
"""Default reliability measures."""
