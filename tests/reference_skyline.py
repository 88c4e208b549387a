"""A brute-force reference for :mod:`repro.core.pareto`.

:func:`repro.core.pareto.pareto_front` is a sort-filter skyline and
:func:`~repro.core.pareto.dominance_counts` compares each point only with
the points before it in descending lexicographic order.  This reference
does none of that: it compares every pair of points with numpy, exactly
as the planner did before the sort-filter skyline, so NaN coordinates,
signed zeros, integers and duplicates follow numpy's element-wise
comparison semantics.  A disagreement points at the ordering argument,
not at the dominance rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _dominates(other: np.ndarray, candidate: np.ndarray) -> bool:
    return bool(np.all(other >= candidate) and np.any(other > candidate))


def reference_pareto_front(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the points no other point dominates, by all-pairs comparison."""
    if not points:
        return []
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("points must be a sequence of equal-length coordinate vectors")
    count = matrix.shape[0]
    return [
        i
        for i in range(count)
        if not any(_dominates(matrix[j], matrix[i]) for j in range(count) if j != i)
    ]


def reference_dominance_counts(points: Sequence[Sequence[float]]) -> list[int]:
    """For each point, how many other points dominate it, by all-pairs comparison."""
    matrix = np.asarray(points, dtype=float)
    count = len(points)
    return [
        sum(1 for j in range(count) if j != i and _dominates(matrix[j], matrix[i]))
        for i in range(count)
    ]
