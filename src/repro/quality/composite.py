"""Measure tables and per-flow quality profiles.

The tool's measure bar chart (Fig. 5) shows one bar per quality
characteristic; clicking a bar "expands" the composite measure into the
detailed metrics it aggregates.  A :class:`MeasureTable` fixes one
registry's measure palette, composites included, and a
:class:`QualityProfile` is one immutable row of numbers against it, so a
cached profile is shared by every flow it was looked up for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Sequence

from repro.quality.framework import MeasureValue, QualityCharacteristic, relative_change


def _derived() -> Any:
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class MeasureTable:
    """The columns every profile of one measure palette is a row against.

    The composites follow from the characteristics: one per
    characteristic, in order of first appearance, over its measures in
    table order (``members``).
    """

    names: tuple[str, ...]
    characteristics: tuple[QualityCharacteristic, ...]
    higher_is_better: tuple[bool, ...]
    units: tuple[str, ...]
    descriptions: tuple[str, ...]
    weights: tuple[float, ...]
    index: Mapping[str, int] = _derived()
    composites: tuple[QualityCharacteristic, ...] = _derived()
    composite_index: Mapping[QualityCharacteristic, int] = _derived()
    members: tuple[tuple[int, ...], ...] = _derived()

    def __post_init__(self) -> None:
        count = len(self.names)
        names = ("names", "characteristics", "higher_is_better", "units", "descriptions", "weights")
        columns = {name: tuple(getattr(self, name)) for name in names}
        if any(len(column) != count for column in columns.values()):
            raise ValueError(f"every measure table column needs {count} entries")
        members: dict[QualityCharacteristic, list[int]] = {}
        for column, characteristic in enumerate(columns["characteristics"]):
            members.setdefault(characteristic, []).append(column)
        columns.update(
            index={name: column for column, name in enumerate(columns["names"])},
            composites=tuple(members),
            composite_index={c: position for position, c in enumerate(members)},
            members=tuple(map(tuple, members.values())),
        )
        if len(columns["index"]) != count:
            raise ValueError("measure table names must be unique")
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:  # equal tables have equal names; strings cache their hash
        return hash(self.names)

    def scores(self, normalized: Sequence[float]) -> tuple[float, ...]:
        """Composite 0-100 scores of one row of normalized values.

        Each sums ``weight * normalized`` over its measures in table
        order and divides by the summed weight.
        """
        weights = self.weights
        scores = []
        for columns in self.members:
            weighted = 0.0
            total_weight = 0.0
            for column in columns:
                weighted += weights[column] * normalized[column]
                total_weight += weights[column]
            scores.append(0.0 if total_weight <= 0 else 100.0 * weighted / total_weight)
        return tuple(scores)


class _MeasureValues(Mapping[str, MeasureValue]):
    """Read-only name -> :class:`MeasureValue` view of a profile's row."""

    __slots__ = ("_profile",)

    def __init__(self, profile: "QualityProfile") -> None:
        self._profile = profile

    def __getitem__(self, name: str) -> MeasureValue:
        return self._profile.measure_value(self._profile.table.index[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._profile.table.names)

    def __len__(self) -> int:
        return len(self._profile.table.names)


@dataclass(frozen=True)
class QualityProfile:
    """The full quality evaluation of one ETL flow: one row of its table.

    Attributes
    ----------
    table:
        The measure palette the row is against.
    raw_values, normalized_values:
        One raw and one normalized value per measure, in table order.
    composite_scores:
        One 0-100 score per composite (larger is better), in the order
        of ``table.composites`` -- the coordinates of the Fig. 4 scatter
        plot.

    A profile carries no flow name: a cached profile serves every flow
    with its cache key, and callers take the name from the flow.
    """

    table: MeasureTable
    raw_values: tuple[float, ...]
    normalized_values: tuple[float, ...]
    composite_scores: tuple[float, ...]

    def measure_value(self, column: int) -> MeasureValue:
        """The :class:`MeasureValue` view of one column of the row."""
        table = self.table
        return MeasureValue(
            table.names[column],
            table.characteristics[column],
            self.raw_values[column],
            self.normalized_values[column],
            table.higher_is_better[column],
            table.units[column],
            table.descriptions[column],
        )

    @property
    def scores(self) -> Mapping[QualityCharacteristic, float]:
        """Composite score per characteristic (a read-only view)."""
        return MappingProxyType(dict(zip(self.table.composites, self.composite_scores)))

    @property
    def values(self) -> Mapping[str, MeasureValue]:
        """Every detailed measure value by name -- the Fig. 5 drill-down (read-only)."""
        return _MeasureValues(self)

    def score(self, characteristic: QualityCharacteristic) -> float:
        """Composite score of one characteristic (0 when not evaluated)."""
        position = self.table.composite_index.get(characteristic)
        return 0.0 if position is None else self.composite_scores[position]

    def value(self, measure_name: str) -> MeasureValue:
        """The detailed value of one measure (raises ``KeyError`` if absent)."""
        return self.values[measure_name]

    def expand(self, characteristic: QualityCharacteristic) -> list[MeasureValue]:
        """Drill down: the detailed measure values composing one characteristic."""
        position = self.table.composite_index.get(characteristic)
        columns = () if position is None else self.table.members[position]
        return [self.measure_value(column) for column in columns]

    def as_vector(
        self, characteristics: Sequence[QualityCharacteristic] | None = None
    ) -> tuple[float, ...]:
        """Composite scores as a tuple, in the given characteristic order.

        This is the point placed in the multidimensional quality space of
        the scatter plot and the input of the Pareto-frontier computation.
        """
        if not characteristics:
            return self.composite_scores
        return tuple(self.score(c) for c in characteristics)

    def relative_changes(self, baseline: "QualityProfile") -> dict[str, float]:
        """Per-measure relative improvement vs. a baseline profile (Fig. 5)."""
        changes: dict[str, float] = {}
        table, base_index = self.table, baseline.table.index
        for column, name in enumerate(table.names):
            base = base_index.get(name)
            if base is None:
                continue
            changes[name] = relative_change(
                self.raw_values[column], baseline.raw_values[base], table.higher_is_better[column]
            )
        return changes

    def characteristic_changes(
        self, baseline: "QualityProfile"
    ) -> dict[QualityCharacteristic, float]:
        """Per-characteristic relative change of the composite scores vs. a baseline."""
        changes: dict[QualityCharacteristic, float] = {}
        base_index = baseline.table.composite_index
        for characteristic, score in zip(self.table.composites, self.composite_scores):
            position = base_index.get(characteristic)
            if position is None:
                continue
            base = baseline.composite_scores[position]
            if base == 0:
                changes[characteristic] = 0.0 if score == 0 else 1.0
            else:
                changes[characteristic] = (score - base) / abs(base)
        return changes

    def dominates(
        self,
        other: "QualityProfile",
        characteristics: Sequence[QualityCharacteristic] | None = None,
    ) -> bool:
        """Pareto dominance on composite scores (larger values preferred).

        ``self`` dominates ``other`` when it is at least as good on every
        examined characteristic and strictly better on at least one --
        exactly the pruning rule the paper describes for the skyline shown
        to the user.
        """
        selected = characteristics or self.table.composites
        at_least_as_good = all(self.score(c) >= other.score(c) for c in selected)
        strictly_better = any(self.score(c) > other.score(c) for c in selected)
        return at_least_as_good and strictly_better
