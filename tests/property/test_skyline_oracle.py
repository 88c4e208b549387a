"""The sort-filter skyline against the all-pairs oracle.

:func:`pareto_front` and :func:`dominance_counts` must agree with the
numpy all-pairs reference in ``tests/reference_skyline.py`` on every
input the planner can hand them and on the awkward ones it should not:
any dimension from 1 to 5, duplicates and ties, integers, ``-0.0`` next
to ``0.0``, infinities, NaN coordinates, empty and single-point sets.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.pareto import dominance_counts, pareto_front
from repro.quality.composite import QualityProfile
from repro.quality.framework import QualityCharacteristic
from tests.profiles import make_profile
from tests.reference_skyline import reference_dominance_counts, reference_pareto_front

_CHARACTERISTICS = tuple(QualityCharacteristic)[:5]

_coordinates = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _point_sets(draw) -> list[tuple]:
    """1-5 dimensional points, with some drawn twice to force exact ties."""
    dimensions = draw(st.integers(min_value=1, max_value=5))
    point = st.tuples(*[_coordinates] * dimensions)
    points = draw(st.lists(point, max_size=30))
    if points:
        repeats = draw(st.lists(st.integers(0, len(points) - 1), max_size=6))
        points += [points[index] for index in repeats]
    return points


def _profiles(points: list[tuple]) -> list[QualityProfile]:
    return [make_profile(dict(zip(_CHARACTERISTICS, point))) for point in points]


class TestSkylineOracle:
    @settings(max_examples=300, deadline=None)
    @given(points=_point_sets())
    @example(points=[])
    @example(points=[(1.0,)])
    @example(points=[(0.0, 1), (-0.0, 1), (0, 1.0)])
    @example(points=[(math.nan, 5.0), (1.0, 1.0), (0.0, 0.0)])
    def test_pareto_front_matches_all_pairs_oracle(self, points):
        assert pareto_front(points) == reference_pareto_front(points)

    @settings(max_examples=200, deadline=None)
    @given(points=_point_sets())
    @example(points=[])
    @example(points=[(2, 2, 2), (2, 2, 2), (1, 1, 1), (math.nan, 3, 3)])
    def test_dominance_counts_match_brute_force(self, points):
        dimensions = len(points[0]) if points else 3
        characteristics = _CHARACTERISTICS[:dimensions]
        expected = reference_dominance_counts(points) if points else []
        assert dominance_counts(_profiles(points), characteristics) == expected

    def test_non_2d_input_rejected_like_the_oracle(self):
        for bad in ([1.0, 2.0], [[[1.0]], [[2.0]]]):
            with pytest.raises(ValueError):
                reference_pareto_front(bad)
            with pytest.raises(ValueError):
                pareto_front(bad)
