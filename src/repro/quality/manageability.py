"""Manageability measures (Fig. 1: longest path, coupling, merge elements)."""

from __future__ import annotations

from repro.etl.graph import ETLGraph
from repro.quality.framework import Measure, QualityCharacteristic
from repro.simulator.traces import TraceArchive


class LongestPathLength(Measure):
    """Length of the process workflow's longest path (in transitions).

    Read from the flow's structure memo (one pass over its memoized
    topological order per structure version).
    """

    name = "longest_path_length"
    description = "Length of process workflow's longest path"
    characteristic = QualityCharacteristic.MANAGEABILITY
    higher_is_better = False
    unit = "edges"
    requires_trace = False
    scale = 30.0
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        return float(flow.longest_path_length())


class Coupling(Measure):
    """Coupling of the process workflow (transitions per operation)."""

    name = "coupling"
    description = "Coupling of process workflow"
    characteristic = QualityCharacteristic.MANAGEABILITY
    higher_is_better = False
    unit = "edges/node"
    requires_trace = False
    scale = 2.0
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        return flow.coupling()


class MergeElementCount(Measure):
    """Number of merge elements in the process model."""

    name = "merge_element_count"
    description = "# of merge elements in the process model"
    characteristic = QualityCharacteristic.MANAGEABILITY
    higher_is_better = False
    unit = "count"
    requires_trace = False
    scale = 8.0
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        return float(flow.merge_element_count())


class OperationCount(Measure):
    """Total number of operations in the process model (size complexity)."""

    name = "operation_count"
    description = "Number of operations in the flow"
    characteristic = QualityCharacteristic.MANAGEABILITY
    higher_is_better = False
    unit = "count"
    requires_trace = False
    scale = 60.0
    weight = 0.5

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        return float(flow.node_count)


MEASURES = (
    LongestPathLength(),
    Coupling(),
    MergeElementCount(),
    OperationCount(),
)
"""Default manageability measures."""
