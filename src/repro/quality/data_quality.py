"""Data-quality measures (Fig. 1: data freshness; plus defect rates)."""

from __future__ import annotations

from repro.etl.graph import ETLGraph
from repro.etl.operations import OperationKind
from repro.quality.framework import Measure, QualityCharacteristic
from repro.simulator.traces import TraceArchive


class FreshnessAge(Measure):
    """Age of the loaded data: request time minus time of last source update.

    Expressed in minutes; combines the source-side lag with the staleness
    introduced by the process schedule, as observed in the simulated runs.
    """

    name = "freshness_age_minutes"
    description = "Request time - Time of last update"
    characteristic = QualityCharacteristic.DATA_QUALITY
    higher_is_better = False
    unit = "minutes"
    requires_trace = True
    scale = 240.0
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        assert archive is not None
        return archive.mean_freshness_lag_minutes()


class FreshnessScore(Measure):
    """Freshness utility score derived from age and update frequency.

    The paper lists the measure ``1 / (1 - age * frequency of updates)``;
    with age expressed in days and a frequency of several updates per day
    that expression degenerates (the denominator crosses zero), so this
    reproduction uses the well-behaved variant ``1 / (1 + age *
    frequency)``, which preserves the intended monotonicity: fresher data
    and slower-changing sources both push the score towards 1.
    """

    name = "freshness_score"
    description = "1 / (1 + age * frequency of updates)"
    characteristic = QualityCharacteristic.DATA_QUALITY
    higher_is_better = True
    unit = "score"
    requires_trace = True
    weight = 1.0

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        assert archive is not None
        age_days = archive.mean_freshness_lag_minutes() / (24.0 * 60.0)
        frequency = archive.mean_update_frequency()
        return 1.0 / (1.0 + age_days * frequency)

    def normalize(self, value: float) -> float:
        return max(0.0, min(1.0, value))


class _LoadedDefectRate(Measure):
    """Base class for defect-rate measures on the loaded data."""

    higher_is_better = False
    unit = "fraction"
    requires_trace = True
    defect_key = ""

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        assert archive is not None
        return archive.mean_defect_rates()[self.defect_key]

    def normalize(self, value: float) -> float:
        return max(0.0, 1.0 - min(value, 1.0))


class ErrorRate(_LoadedDefectRate):
    """Fraction of loaded rows carrying incorrect values."""

    name = "error_rate"
    description = "Erroneous rows / loaded rows"
    characteristic = QualityCharacteristic.DATA_QUALITY
    defect_key = "error_rate"
    weight = 2.0


class NullRate(_LoadedDefectRate):
    """Fraction of loaded rows with NULLs in nullable fields."""

    name = "null_rate"
    description = "Rows with NULL defects / loaded rows"
    characteristic = QualityCharacteristic.DATA_QUALITY
    defect_key = "null_rate"
    weight = 1.5


class DuplicateRate(_LoadedDefectRate):
    """Fraction of loaded rows duplicating another row's key."""

    name = "duplicate_rate"
    description = "Duplicate rows / loaded rows"
    characteristic = QualityCharacteristic.DATA_QUALITY
    defect_key = "duplicate_rate"
    weight = 1.5


class CleansingCoverage(Measure):
    """Static measure: fraction of source branches protected by cleansing operations.

    A source is considered covered when a data-quality operation
    (deduplicate, null filter, crosscheck, validate, cleanse) lies on some
    path from it to a sink.  This captures the structural intent of the
    data-quality FCPs without requiring a simulation.
    """

    name = "cleansing_coverage"
    description = "Sources protected by data-cleaning operations"
    characteristic = QualityCharacteristic.DATA_QUALITY
    higher_is_better = True
    unit = "fraction"
    requires_trace = False
    weight = 1.0

    _CLEANSING_KINDS = (
        OperationKind.DEDUPLICATE,
        OperationKind.FILTER_NULLS,
        OperationKind.CROSSCHECK,
        OperationKind.VALIDATE,
        OperationKind.CLEANSE,
    )

    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        sources = flow.sources()
        if not sources:
            return 0.0
        cleansing_ids = {op.op_id for op in flow.operations_of_kind(*self._CLEANSING_KINDS)}
        if not cleansing_ids:
            return 0.0
        # "A cleansing operation lies downstream", for every operation in
        # one reverse pass over the topological order.
        cleansed: dict[str, bool] = {}
        for op_id in reversed(flow.topological_ids()):
            cleansed[op_id] = any(
                succ in cleansing_ids or cleansed[succ] for succ in flow.successor_ids(op_id)
            )
        covered = sum(1 for source in sources if cleansed[source.op_id])
        return covered / len(sources)

    def normalize(self, value: float) -> float:
        return max(0.0, min(1.0, value))


MEASURES = (
    FreshnessAge(),
    FreshnessScore(),
    ErrorRate(),
    NullRate(),
    DuplicateRate(),
    CleansingCoverage(),
)
"""Default data-quality measures."""
