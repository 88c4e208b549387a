"""Pareto frontier (skyline) of alternative designs.

The scatter-plot points presented to the user are only the Pareto frontier
(skyline) of the complete set of alternative designs, based on their
evaluation according to the examined quality dimensions, where larger
values are preferred to smaller ones (Section 3): a design is dropped when
another design is at least as good on every dimension and strictly better
on at least one.
"""

from __future__ import annotations

from operator import ge
from typing import Sequence

import numpy as np

from repro.quality.composite import QualityProfile
from repro.quality.framework import QualityCharacteristic


def _float_rows(points: Sequence[Sequence[float]]) -> list[list[float]]:
    """The points as lists of Python floats; ``ValueError`` unless 2-d."""
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("points must be a sequence of equal-length coordinate vectors")
    return matrix.tolist()


def _descending_order(rows: list[list[float]]) -> tuple[list[int], list[int]]:
    """NaN-free row indices in descending lexicographic order, and the rest.

    A dominating point is at least as large everywhere and larger
    somewhere, hence lexicographically larger: only rows earlier in the
    order can dominate a row.  A row with a NaN coordinate neither
    dominates nor is dominated (every comparison with NaN is false), so
    it is returned apart.
    """
    complete: list[int] = []
    incomplete: list[int] = []
    for index, row in enumerate(rows):
        if any(value != value for value in row):
            incomplete.append(index)
        else:
            complete.append(index)
    complete.sort(key=rows.__getitem__, reverse=True)
    return complete, incomplete


def _dominates(other: list[float], row: list[float]) -> bool:
    """Whether NaN-free ``other`` is >= ``row`` everywhere and > somewhere."""
    return other != row and all(map(ge, other, row))


def pareto_front(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the Pareto-optimal points (larger coordinates preferred).

    A point is kept unless some other point dominates it: the other point
    is greater than or equal on every coordinate and strictly greater on
    at least one.  Duplicated coordinate vectors are all kept (none of them
    dominates the other), matching the paper's pruning rule exactly.  A
    point with a NaN coordinate is always kept and dominates nothing.

    Sort-filter skyline: in descending lexicographic order a point can
    only be dominated by an earlier one, and dominance is transitive, so
    comparing each point with the skyline found so far suffices --
    O(n log n + n*s*d) for ``s`` skyline points in ``d`` dimensions.
    """
    if not points:
        return []
    rows = _float_rows(points)
    order, keep = _descending_order(rows)
    skyline: list[list[float]] = []
    for index in order:
        row = rows[index]
        if not any(_dominates(best, row) for best in skyline):
            skyline.append(row)
            keep.append(index)
    keep.sort()
    return keep


def pareto_front_profiles(
    profiles: Sequence[QualityProfile],
    characteristics: Sequence[QualityCharacteristic],
) -> list[int]:
    """Indices of the profiles on the skyline of the given quality dimensions."""
    vectors = [profile.as_vector(characteristics) for profile in profiles]
    return pareto_front(vectors)


def dominance_counts(
    profiles: Sequence[QualityProfile],
    characteristics: Sequence[QualityCharacteristic],
) -> list[int]:
    """For each profile, the number of other profiles that dominate it.

    Zero means the profile is on the skyline; the counts are useful for
    layered ("k-skyband") visualisations and for tests.  Only profiles
    earlier in the skyline's descending order are compared.
    """
    if not profiles:
        return []
    rows = _float_rows([profile.as_vector(characteristics) for profile in profiles])
    order, _ = _descending_order(rows)
    counts = [0] * len(rows)
    ordered = [rows[index] for index in order]
    for position, index in enumerate(order):
        row = ordered[position]
        counts[index] = sum(1 for other in ordered[:position] if _dominates(other, row))
    return counts
