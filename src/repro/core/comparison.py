"""Comparison of an alternative flow against the initial flow.

The measures view of the tool (Fig. 5) shows, on a bar graph, the relative
change of the metrics for each quality characteristic, denoting the
estimated effect of selecting each of the available flows compared with
the initial flow as a baseline; clicking a composite bar expands it into
more detailed measures.  :class:`FlowComparison` computes exactly that
data: per-characteristic relative change of the composite scores and the
per-measure drill-down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.quality.composite import QualityProfile
from repro.quality.framework import QualityCharacteristic


@dataclass(frozen=True)
class MeasureChange:
    """Relative change of one detailed measure vs. the baseline."""

    measure: str
    characteristic: QualityCharacteristic
    baseline_value: float
    new_value: float
    relative_improvement: float
    unit: str = ""
    description: str = ""


@dataclass
class FlowComparison:
    """The Fig. 5 data: composite and detailed changes of one flow vs. the baseline."""

    flow_name: str
    baseline_name: str
    characteristic_changes: dict[QualityCharacteristic, float] = field(default_factory=dict)
    measure_changes: dict[str, MeasureChange] = field(default_factory=dict)

    def change(self, characteristic: QualityCharacteristic) -> float:
        """Relative change of one characteristic's composite score."""
        return self.characteristic_changes.get(characteristic, 0.0)

    def expand(self, characteristic: QualityCharacteristic) -> list[MeasureChange]:
        """Drill-down: the detailed measure changes composing one characteristic."""
        return [
            change
            for change in self.measure_changes.values()
            if change.characteristic is characteristic
        ]

    def improved_characteristics(self) -> list[QualityCharacteristic]:
        """Characteristics whose composite score improved vs. the baseline."""
        return [c for c, delta in self.characteristic_changes.items() if delta > 0]

    def degraded_characteristics(self) -> list[QualityCharacteristic]:
        """Characteristics whose composite score degraded vs. the baseline."""
        return [c for c, delta in self.characteristic_changes.items() if delta < 0]

    def to_dict(self) -> dict[str, object]:
        """Serialise to a JSON-friendly structure (used by the viz backends)."""
        return {
            "flow": self.flow_name,
            "baseline": self.baseline_name,
            "characteristics": {
                c.value: delta for c, delta in self.characteristic_changes.items()
            },
            "measures": {
                name: {
                    "characteristic": change.characteristic.value,
                    "baseline_value": change.baseline_value,
                    "new_value": change.new_value,
                    "relative_improvement": change.relative_improvement,
                    "unit": change.unit,
                }
                for name, change in self.measure_changes.items()
            },
        }


def compare_profiles(
    profile: QualityProfile,
    baseline: QualityProfile,
    flow_name: str = "",
    baseline_name: str = "",
) -> FlowComparison:
    """Compute the Fig. 5 comparison of ``profile`` against ``baseline``.

    Profiles carry no flow name; the caller names the two flows.
    """
    comparison = FlowComparison(flow_name, baseline_name, profile.characteristic_changes(baseline))
    table = profile.table
    for name, improvement in profile.relative_changes(baseline).items():
        column = table.index[name]
        comparison.measure_changes[name] = MeasureChange(
            measure=name,
            characteristic=table.characteristics[column],
            baseline_value=baseline.raw_values[baseline.table.index[name]],
            new_value=profile.raw_values[column],
            relative_improvement=improvement,
            unit=table.units[column],
            description=table.descriptions[column],
        )
    return comparison
