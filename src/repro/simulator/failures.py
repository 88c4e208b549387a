"""Failure injection and checkpoint-based recovery.

The reliability Flow Component Pattern of the paper (``AddCheckpoint``,
Fig. 2b) persists intermediary data at a savepoint so that, when a
downstream operation fails, execution resumes from the savepoint instead
of re-running the whole flow.  The simulator models this by sampling
failures per operation according to each operation's ``failure_rate`` and
charging either the full upstream work (no checkpoint available) or only
the work since the most recent checkpoint as *lost work* that must be
repeated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.etl.graph import ETLGraph
from repro.etl.operations import OperationKind


@dataclass(frozen=True)
class FailureEvent:
    """One failure sampled during a simulated execution.

    Attributes
    ----------
    op_id:
        The operation that failed.
    lost_work_ms:
        Processing time that has to be repeated because of the failure.
    recovered_from:
        Identifier of the checkpoint operation recovery restarted from, or
        an empty string when the whole flow had to be restarted.
    """

    op_id: str
    lost_work_ms: float
    recovered_from: str = ""


class FailureInjector:
    """Samples failures for a flow execution and computes recovery costs.

    The checkpoint set is read at construction and each failing
    operation's recovery plan is memoized, so a flow mutated afterwards
    needs a new injector.
    """

    def __init__(self, flow: ETLGraph) -> None:
        self._flow = flow
        self._checkpoints = {
            op.op_id for op in flow.operations_of_kind(OperationKind.CHECKPOINT)
        }
        # failed op -> (chargeable ids in id order, checkpoint recovered from)
        self._plans: dict[str, tuple[tuple[str, ...], str]] = {}

    @property
    def checkpoint_ids(self) -> frozenset[str]:
        """Identifiers of the checkpoint operations present in the flow."""
        return frozenset(self._checkpoints)

    def failure_probability(self, op_id: str) -> float:
        """Per-execution failure probability of one operation."""
        return self._flow.operation(op_id).properties.failure_rate

    def flow_failure_probability(self) -> float:
        """Probability that at least one operation fails during an execution."""
        survival = 1.0
        for op in self._flow.operations():
            survival *= 1.0 - op.properties.failure_rate
        return 1.0 - survival

    def sample_failures(
        self, random_values: Mapping[str, float]
    ) -> list[str]:
        """Return the operations that fail, given pre-drawn uniforms per op.

        ``random_values`` maps ``op_id`` to a uniform sample in ``[0, 1)``;
        an operation fails when its sample falls below its failure rate.
        Accepting the randomness from outside keeps the injector
        deterministic and unit-testable.
        """
        failed = []
        for op in self._flow.operations():
            value = random_values.get(op.op_id, 1.0)
            if value < op.properties.failure_rate:
                failed.append(op.op_id)
        return failed

    def lost_work_for_failure(
        self, failed_op: str, operation_times_ms: Mapping[str, float]
    ) -> FailureEvent:
        """Compute the work lost when ``failed_op`` fails.

        Without a checkpoint upstream of the failed operation, all work
        performed upstream (plus the failed operation's own work) must be
        repeated.  With one or more checkpoints upstream, only the work of
        operations strictly downstream of the nearest checkpoint is lost,
        modelling the paper's savepoint/recovery construct.  The graph
        queries behind that answer run once per failing operation; later
        failures of the same operation only sum the chargeable times.
        """
        chargeable, recovered_from = self._recovery_plan(failed_op)
        # Summed in id order: float addition is not associative, so a
        # hash-ordered sum would move the last bits with PYTHONHASHSEED.
        lost = sum(operation_times_ms.get(op_id, 0.0) for op_id in chargeable)
        return FailureEvent(op_id=failed_op, lost_work_ms=lost, recovered_from=recovered_from)

    def _recovery_plan(self, failed_op: str) -> tuple[tuple[str, ...], str]:
        """The sorted ids charged for a failure of ``failed_op``, and its checkpoint."""
        plan = self._plans.get(failed_op)
        if plan is not None:
            return plan
        upstream = self._flow.upstream_of(failed_op)
        chargeable = set(upstream) | {failed_op}
        recovered_from = ""
        upstream_checkpoints = upstream & self._checkpoints
        if upstream_checkpoints:
            # Nearest checkpoint = the one with the largest distance from sources
            # (i.e. the latest persisted state on the path to the failure);
            # equally distant checkpoints tie-break on their id, never on
            # set (hash) order.
            nearest = max(
                upstream_checkpoints,
                key=lambda cp: (self._flow.distance_from_sources(cp), cp),
            )
            recovered_from = nearest
            protected = self._flow.upstream_of(nearest) | {nearest}
            chargeable -= protected
        plan = self._plans[failed_op] = (tuple(sorted(chargeable)), recovered_from)
        return plan

    def recovery_events(
        self,
        failed_ops: Sequence[str],
        operation_times_ms: Mapping[str, float],
    ) -> list[FailureEvent]:
        """Compute the lost work for every sampled failure of an execution."""
        return [self.lost_work_for_failure(op_id, operation_times_ms) for op_id in failed_ops]
