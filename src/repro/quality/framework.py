"""Core abstractions of the quality measurement framework."""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.etl.graph import ETLGraph
from repro.simulator.traces import TraceArchive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quality.composite import MeasureTable


class QualityCharacteristic(enum.Enum):
    """Quality characteristics of an ETL process considered by POIESIS."""

    PERFORMANCE = "performance"
    DATA_QUALITY = "data_quality"
    RELIABILITY = "reliability"
    MANAGEABILITY = "manageability"
    COST = "cost"
    SECURITY = "security"

    @property
    def label(self) -> str:
        """Human-readable label used by visualisations."""
        return self.value.replace("_", " ").title()


class Measure(abc.ABC):
    """A single quality measure.

    Subclasses implement :meth:`compute`, returning the raw measure value
    for a flow (optionally using a simulated trace archive), and declare
    whether larger raw values are better and how raw values map onto a
    normalised ``[0, 1]`` goodness scale used by composite measures.
    """

    #: Unique measure identifier (snake_case).
    name: str = ""
    #: Human-readable description shown in reports (matches Fig. 1 wording).
    description: str = ""
    #: The quality characteristic the measure contributes to.
    characteristic: QualityCharacteristic = QualityCharacteristic.PERFORMANCE
    #: Whether larger raw values indicate better quality.
    higher_is_better: bool = True
    #: Unit of the raw value (informational).
    unit: str = ""
    #: Whether the measure needs a simulated trace archive.
    requires_trace: bool = False
    #: Scale parameter used by the default normalisation.
    scale: float = 1.0
    #: Relative weight within its characteristic's composite measure.
    weight: float = 1.0

    @abc.abstractmethod
    def compute(self, flow: ETLGraph, archive: TraceArchive | None = None) -> float:
        """Return the raw value of the measure for ``flow``."""

    def normalize(self, value: float) -> float:
        """Map a raw value onto a ``[0, 1]`` goodness score.

        The default normalisation is an exponential saturation curve
        parameterised by :attr:`scale`: values around ``scale`` map to the
        middle of the range.  Measures where smaller is better are
        inverted.  Subclasses with naturally bounded values (rates,
        probabilities) override this.
        """
        if self.scale <= 0:
            raise ValueError(f"measure {self.name!r} has a non-positive scale")
        goodness = math.exp(-max(value, 0.0) / self.scale)
        return goodness if not self.higher_is_better else 1.0 - goodness

    def evaluate(self, flow: ETLGraph, archive: TraceArchive | None = None) -> "MeasureValue":
        """Compute the measure and wrap it in a :class:`MeasureValue`."""
        if self.requires_trace and archive is None:
            raise ValueError(f"measure {self.name!r} requires a simulated trace archive")
        raw = self.compute(flow, archive)
        return MeasureValue(
            measure=self.name,
            characteristic=self.characteristic,
            value=raw,
            normalized=self.normalize(raw),
            higher_is_better=self.higher_is_better,
            unit=self.unit,
            description=self.description,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class MeasureValue:
    """The evaluated value of one measure on one flow."""

    measure: str
    characteristic: QualityCharacteristic
    value: float
    normalized: float
    higher_is_better: bool
    unit: str = ""
    description: str = ""

    def relative_change(self, baseline: "MeasureValue") -> float:
        """Relative *improvement* (positive = better) vs. a baseline value.

        The change is computed on raw values and sign-adjusted so that a
        positive result always means "this flow is better than the
        baseline", regardless of the measure orientation -- this is the
        quantity shown on the Fig. 5 bar chart.
        """
        if baseline.measure != self.measure:
            raise ValueError(
                f"cannot compare measure {self.measure!r} to baseline {baseline.measure!r}"
            )
        return relative_change(self.value, baseline.value, self.higher_is_better)


def relative_change(value: float, baseline: float, higher_is_better: bool) -> float:
    """Relative improvement of a raw ``value`` over ``baseline`` (positive = better)."""
    if baseline == 0:
        if value == 0:
            return 0.0
        change = 1.0 if value > 0 else -1.0
    else:
        change = (value - baseline) / abs(baseline)
    return change if higher_is_better else -change


class MeasureRegistry:
    """A named collection of measures, the tool's measure palette."""

    def __init__(self, measures: Iterable[Measure] = ()) -> None:
        self._measures: dict[str, Measure] = {}
        self._table: MeasureTable | None = None
        for measure in measures:
            self.register(measure)

    def register(self, measure: Measure) -> Measure:
        """Add a measure to the registry (replacing any same-named one)."""
        if not measure.name:
            raise ValueError("measures must define a non-empty name")
        self._measures[measure.name] = measure
        self._table = None
        return measure

    def unregister(self, name: str) -> None:
        """Remove a measure from the registry."""
        del self._measures[name]
        self._table = None

    def table(self) -> "MeasureTable":
        """The measure table of the registered measures, in order (built once per set)."""
        if self._table is None:
            from repro.quality.composite import MeasureTable

            attrs = ("name", "characteristic", "higher_is_better", "unit", "description", "weight")
            measures = self._measures.values()
            self._table = MeasureTable(*(tuple(getattr(m, a) for m in measures) for a in attrs))
        return self._table

    def get(self, name: str) -> Measure:
        """Return the measure called ``name``."""
        try:
            return self._measures[name]
        except KeyError as exc:
            raise KeyError(f"unknown measure: {name!r}") from exc

    def __contains__(self, name: object) -> bool:
        return name in self._measures

    def __len__(self) -> int:
        return len(self._measures)

    def __iter__(self) -> Iterator[Measure]:
        return iter(self._measures.values())

    def names(self) -> list[str]:
        """All registered measure names."""
        return list(self._measures)

    def for_characteristic(self, characteristic: QualityCharacteristic) -> list[Measure]:
        """All measures contributing to one characteristic."""
        return [m for m in self._measures.values() if m.characteristic is characteristic]

    def characteristics(self) -> list[QualityCharacteristic]:
        """The characteristics covered by the registered measures."""
        seen: list[QualityCharacteristic] = []
        for measure in self._measures.values():
            if measure.characteristic not in seen:
                seen.append(measure.characteristic)
        return seen


def default_registry() -> MeasureRegistry:
    """The default measure palette of the tool.

    Mirrors (and extends) the example measures of Fig. 1: performance
    (process cycle time, average latency per tuple), data quality
    (freshness age, freshness score, error/null/duplicate rates),
    manageability (longest path, coupling, number of merge elements) plus
    reliability and cost measures used by the Fig. 2 and Fig. 4 artefacts.
    """
    from repro.quality import cost, data_quality, manageability, performance, reliability

    registry = MeasureRegistry()
    for module in (performance, data_quality, reliability, manageability, cost):
        for measure in module.MEASURES:
            registry.register(measure)
    return registry
