"""Cost measures (monetary cost of executing the process)."""

from __future__ import annotations

from repro.etl.graph import ETLGraph
from repro.quality.framework import Measure, QualityCharacteristic
from repro.simulator.traces import TraceArchive


class MonetaryCostPerExecution(Measure):
    """Mean monetary cost of one execution (infrastructure plus per-operation costs)."""

    name = "monetary_cost_per_execution"
    description = "Cost of infrastructure and services per execution"
    characteristic = QualityCharacteristic.COST
    higher_is_better = False
    unit = "cost units"
    requires_trace = True
    scale = 1.0
    weight = 2.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        assert archive is not None
        return archive.mean_monetary_cost()


class ResourceFootprint(Measure):
    """Static measure: aggregate per-tuple processing cost configured in the flow.

    Approximates the compute footprint without running a simulation; used
    when cheap, trace-free screening of very large alternative spaces is
    needed.
    """

    name = "resource_footprint"
    description = "Sum of configured per-tuple costs weighted by source volumes"
    characteristic = QualityCharacteristic.COST
    higher_is_better = False
    unit = "ms (est.)"
    requires_trace = False
    scale = 30_000.0
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        source_rows = sum(float(op.config.get("rows", 1000)) for op in flow.sources())
        if source_rows <= 0:
            source_rows = 1000.0
        total = 0.0
        for op in flow.operations():
            props = op.properties
            total += props.fixed_cost
            total += props.cost_per_tuple * source_rows / max(1, op.parallelism)
        return total


MEASURES = (
    MonetaryCostPerExecution(),
    ResourceFootprint(),
)
"""Default cost measures."""
