"""Workload presets for measured (executed) planning runs.

Calibration compares the simulator's ranking with measured wall time, so
the pattern palette is restricted to patterns with *genuine* execution
side effects on the local backends: data-quality filters change the row
volume every downstream operator touches, and checkpoints add real
serialization work proportional to the rows flowing through them.
Patterns whose simulated benefit has no executable counterpart here
(``ParallelizeTask`` -- the reference backends are single-threaded --
resource-tier and schedule tweaks, encryption stubs) would only add rank
noise, so the calibration preset leaves them out.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.configuration import ProcessingConfiguration
from repro.etl.graph import ETLGraph
from repro.workloads.tpch import tpch_refresh_flow

__all__ = ["CALIBRATION_PATTERNS", "calibration_configuration", "calibration_flow"]

#: Patterns whose effect is measurable when flows actually execute.
CALIBRATION_PATTERNS: tuple[str, ...] = (
    "FilterNullValues",
    "RemoveDuplicateEntries",
    "AddCheckpoint",
)


def calibration_configuration(
    pattern_budget: int = 2,
    seed: int = 11,
    **overrides,
) -> ProcessingConfiguration:
    """A planning configuration suited to measured top-k calibration.

    Restricts the palette to :data:`CALIBRATION_PATTERNS` and keeps the
    run deterministic; any field of
    :class:`~repro.core.configuration.ProcessingConfiguration` can still
    be overridden by keyword.
    """
    settings = {
        "pattern_names": CALIBRATION_PATTERNS,
        "pattern_budget": pattern_budget,
        "seed": seed,
    }
    settings.update(overrides)
    return ProcessingConfiguration(**settings)


def calibration_flow(scale: float = 0.05, defect_boost: float = 8.0) -> ETLGraph:
    """The TPC-H refresh flow with deliberately dirty sources.

    The baseline TPC-H sources carry 1-4% defects -- at that rate a
    data-quality pattern changes the downstream row volume (and thus the
    wall time) by less than run-to-run timing noise, and a measured
    ranking over near-tied designs is meaningless.  Boosting the
    extraction defect rates makes each pattern placement's effect
    *material* in both worlds: the simulator sees it through defect
    propagation, the executor through actually dropped rows.  Volumes and
    structure are untouched; only ``null_rate``/``duplicate_rate``/
    ``error_rate`` on the extraction operations grow (capped at 45%).
    """
    flow = tpch_refresh_flow(scale=scale)
    for operation in flow.operations():
        if not operation.kind.is_source:
            continue
        properties = operation.properties
        boosted = {
            rate_name: min(0.45, getattr(properties, rate_name) * defect_boost)
            for rate_name in ("null_rate", "duplicate_rate", "error_rate")
        }
        flow.update_operation(operation.op_id, properties=replace(properties, **boosted))
    return flow
