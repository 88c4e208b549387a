"""Quality profiles for tests, built through the public ``MeasureTable`` constructor.

A profile is one row against a measure table, so a test states the
measures it needs (and the composite scores it wants) and gets the
table and the row together.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.quality.composite import MeasureTable, QualityProfile
from repro.quality.framework import QualityCharacteristic


def make_profile(
    scores: Mapping[QualityCharacteristic, float] | None = None,
    measures: Sequence[tuple] = (),
) -> QualityProfile:
    """A profile with the given composite ``scores`` and measure columns.

    ``measures`` are ``(name, characteristic, value, normalized,
    higher_is_better[, unit])`` tuples.  A scored characteristic that no
    measure covers gets a placeholder column named after it, so the table
    has a composite for it; a composite without a given score reads 0.
    """
    scores = dict(scores or {})
    columns = [tuple(measure) + ("",) * (6 - len(measure)) for measure in measures]
    covered = {column[1] for column in columns}
    columns += [(c.value, c, 0.0, 0.0, True, "") for c in scores if c not in covered]
    table = MeasureTable(
        names=tuple(column[0] for column in columns),
        characteristics=tuple(column[1] for column in columns),
        higher_is_better=tuple(column[4] for column in columns),
        units=tuple(column[5] for column in columns),
        descriptions=("",) * len(columns),
        weights=(1.0,) * len(columns),
    )
    return QualityProfile(
        table,
        tuple(column[2] for column in columns),
        tuple(column[3] for column in columns),
        tuple(scores.get(c, 0.0) for c in table.composites),
    )


def tagged(tag: str) -> QualityProfile:
    """A profile told apart from others by ``tag``, the name of its one measure."""
    return make_profile(measures=[(tag, QualityCharacteristic.PERFORMANCE, 1.0, 0.5, True)])


def tag(profile: QualityProfile) -> str:
    """The tag of a :func:`tagged` profile."""
    return profile.table.names[0]
