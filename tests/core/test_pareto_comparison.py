"""Tests for the Pareto skyline and the baseline comparison (Fig. 4 / Fig. 5 data)."""

import pytest

from repro.core.comparison import compare_profiles
from repro.core.pareto import dominance_counts, pareto_front, pareto_front_profiles
from repro.quality.framework import QualityCharacteristic
from tests.profiles import make_profile


def _profile(name, perf, dq, rel):
    return make_profile(
        {
            QualityCharacteristic.PERFORMANCE: perf,
            QualityCharacteristic.DATA_QUALITY: dq,
            QualityCharacteristic.RELIABILITY: rel,
        }
    )


CHARS = (
    QualityCharacteristic.PERFORMANCE,
    QualityCharacteristic.DATA_QUALITY,
    QualityCharacteristic.RELIABILITY,
)


class TestParetoFront:
    def test_empty(self):
        assert pareto_front([]) == []

    def test_single_point(self):
        assert pareto_front([(1.0, 2.0)]) == [0]

    def test_dominated_point_removed(self):
        # point 1 dominates point 0 on both coordinates
        points = [(1.0, 1.0), (2.0, 2.0)]
        assert pareto_front(points) == [1]

    def test_paper_rule_same_or_better_everywhere_and_strictly_better_once(self):
        # ETL1 vs ETL2: same performance and data quality, better reliability
        etl1 = (50.0, 60.0, 40.0)
        etl2 = (50.0, 60.0, 55.0)
        assert pareto_front([etl1, etl2]) == [1]

    def test_incomparable_points_all_kept(self):
        points = [(1.0, 5.0), (5.0, 1.0), (3.0, 3.0)]
        assert pareto_front(points) == [0, 1, 2]

    def test_duplicates_are_kept(self):
        points = [(2.0, 2.0), (2.0, 2.0), (1.0, 1.0)]
        assert pareto_front(points) == [0, 1]

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            pareto_front([1.0, 2.0])  # type: ignore[list-item]

    def test_three_dimensions(self):
        points = [
            (1.0, 1.0, 1.0),
            (2.0, 1.0, 1.0),
            (1.0, 2.0, 1.0),
            (0.5, 0.5, 0.5),
        ]
        assert pareto_front(points) == [1, 2]

    def test_profiles_wrapper(self):
        profiles = [
            _profile("a", 50, 50, 50),
            _profile("b", 60, 50, 50),
            _profile("c", 10, 90, 10),
        ]
        assert pareto_front_profiles(profiles, CHARS) == [1, 2]

    def test_dominance_counts(self):
        profiles = [
            _profile("a", 50, 50, 50),
            _profile("b", 60, 60, 60),
            _profile("c", 70, 70, 70),
        ]
        assert dominance_counts(profiles, CHARS) == [2, 1, 0]


class TestComparison:
    def _profiles(self, baseline_success=True):
        perf, rel = QualityCharacteristic.PERFORMANCE, QualityCharacteristic.RELIABILITY
        baseline = make_profile(
            {perf: 50.0, rel: 40.0},
            [("process_cycle_time_ms", perf, 1_000.0, 0.5, False, "ms")]
            + ([("success_rate", rel, 0.8, 0.8, True)] if baseline_success else []),
        )
        alternative = make_profile(
            {perf: 60.0, rel: 36.0},
            [
                ("process_cycle_time_ms", perf, 800.0, 0.6, False, "ms"),
                ("success_rate", rel, 0.72, 0.72, True),
            ],
        )
        return alternative, baseline

    def test_characteristic_changes(self):
        alternative, baseline = self._profiles()
        comparison = compare_profiles(alternative, baseline)
        assert comparison.change(QualityCharacteristic.PERFORMANCE) == pytest.approx(0.2)
        assert comparison.change(QualityCharacteristic.RELIABILITY) == pytest.approx(-0.1)
        assert comparison.improved_characteristics() == [QualityCharacteristic.PERFORMANCE]
        assert comparison.degraded_characteristics() == [QualityCharacteristic.RELIABILITY]

    def test_measure_drilldown(self):
        alternative, baseline = self._profiles()
        comparison = compare_profiles(alternative, baseline)
        details = comparison.expand(QualityCharacteristic.PERFORMANCE)
        assert len(details) == 1
        cycle = details[0]
        assert cycle.measure == "process_cycle_time_ms"
        assert cycle.baseline_value == 1_000.0
        assert cycle.new_value == 800.0
        # 20% faster on a lower-is-better measure is a +20% improvement
        assert cycle.relative_improvement == pytest.approx(0.2)

    def test_reliability_drilldown_shows_degradation(self):
        alternative, baseline = self._profiles()
        comparison = compare_profiles(alternative, baseline)
        success = comparison.expand(QualityCharacteristic.RELIABILITY)[0]
        assert success.relative_improvement == pytest.approx(-0.1)

    def test_missing_baseline_measures_are_skipped(self):
        alternative, baseline = self._profiles(baseline_success=False)
        comparison = compare_profiles(alternative, baseline)
        assert "success_rate" not in comparison.measure_changes

    def test_to_dict(self):
        alternative, baseline = self._profiles()
        data = compare_profiles(alternative, baseline, "alt", "initial").to_dict()
        assert data["flow"] == "alt"
        assert data["baseline"] == "initial"
        assert "performance" in data["characteristics"]
        assert "process_cycle_time_ms" in data["measures"]
