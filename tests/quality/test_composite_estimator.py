"""Tests for composite measures, quality profiles and the estimator facade."""

import pytest

from repro.quality.composite import CompositeMeasure, QualityProfile, build_composites
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.quality.framework import (
    MeasureRegistry,
    MeasureValue,
    QualityCharacteristic,
    default_registry,
)
from repro.quality.manageability import Coupling, LongestPathLength
from tests.conftest import static_registry


def _value(name, characteristic, value, normalized, higher=True):
    return MeasureValue(
        measure=name,
        characteristic=characteristic,
        value=value,
        normalized=normalized,
        higher_is_better=higher,
    )


class TestCompositeMeasure:
    def test_score_is_weighted_mean_of_normalised_values(self):
        composite = CompositeMeasure(
            QualityCharacteristic.MANAGEABILITY,
            components=(LongestPathLength(), Coupling()),
        )
        values = {
            "longest_path_length": _value(
                "longest_path_length", QualityCharacteristic.MANAGEABILITY, 5, 0.8, higher=False
            ),
            "coupling": _value(
                "coupling", QualityCharacteristic.MANAGEABILITY, 1.0, 0.4, higher=False
            ),
        }
        # equal weights (1.0) -> plain mean of 0.8 and 0.4 on a 0-100 scale
        assert composite.score(values) == pytest.approx(60.0)

    def test_missing_components_are_skipped(self):
        composite = CompositeMeasure(
            QualityCharacteristic.MANAGEABILITY,
            components=(LongestPathLength(), Coupling()),
        )
        values = {
            "coupling": _value(
                "coupling", QualityCharacteristic.MANAGEABILITY, 1.0, 0.4, higher=False
            ),
        }
        assert composite.score(values) == pytest.approx(40.0)

    def test_empty_values_score_zero(self):
        composite = CompositeMeasure(QualityCharacteristic.COST, components=())
        assert composite.score({}) == 0.0

    def test_build_composites_covers_registry(self):
        registry = default_registry()
        composites = build_composites(registry)
        assert set(composites) == set(registry.characteristics())
        for characteristic, composite in composites.items():
            assert composite.component_names() == [
                m.name for m in registry.for_characteristic(characteristic)
            ]


class TestQualityProfile:
    def _profile(self, name="flow", perf=50.0, dq=60.0):
        profile = QualityProfile(flow_name=name)
        profile.scores[QualityCharacteristic.PERFORMANCE] = perf
        profile.scores[QualityCharacteristic.DATA_QUALITY] = dq
        profile.values["cycle"] = _value(
            "cycle", QualityCharacteristic.PERFORMANCE, 100.0, 0.5, higher=False
        )
        profile.values["nulls"] = _value(
            "nulls", QualityCharacteristic.DATA_QUALITY, 0.1, 0.9, higher=False
        )
        return profile

    def test_score_and_value_accessors(self):
        profile = self._profile()
        assert profile.score(QualityCharacteristic.PERFORMANCE) == 50.0
        assert profile.score(QualityCharacteristic.RELIABILITY) == 0.0
        assert profile.value("cycle").value == 100.0
        with pytest.raises(KeyError):
            profile.value("missing")

    def test_expand_drills_down_by_characteristic(self):
        profile = self._profile()
        detailed = profile.expand(QualityCharacteristic.PERFORMANCE)
        assert [v.measure for v in detailed] == ["cycle"]

    def test_as_vector_order(self):
        profile = self._profile(perf=10.0, dq=20.0)
        vector = profile.as_vector(
            [QualityCharacteristic.DATA_QUALITY, QualityCharacteristic.PERFORMANCE]
        )
        assert vector == (20.0, 10.0)

    def test_dominates(self):
        a = self._profile(perf=50.0, dq=60.0)
        b = self._profile(perf=40.0, dq=60.0)
        characteristics = [QualityCharacteristic.PERFORMANCE, QualityCharacteristic.DATA_QUALITY]
        assert a.dominates(b, characteristics)
        assert not b.dominates(a, characteristics)
        assert not a.dominates(a, characteristics)

    def test_relative_changes(self):
        baseline = self._profile()
        improved = self._profile()
        improved.values["cycle"] = _value(
            "cycle", QualityCharacteristic.PERFORMANCE, 50.0, 0.7, higher=False
        )
        changes = improved.relative_changes(baseline)
        assert changes["cycle"] == pytest.approx(0.5)
        assert changes["nulls"] == pytest.approx(0.0)

    def test_characteristic_changes(self):
        baseline = self._profile(perf=50.0)
        better = self._profile(perf=75.0)
        changes = better.characteristic_changes(baseline)
        assert changes[QualityCharacteristic.PERFORMANCE] == pytest.approx(0.5)

    def test_to_dict_round_trippable_structure(self):
        data = self._profile().to_dict()
        assert data["flow_name"] == "flow"
        assert "performance" in data["scores"]
        assert "cycle" in data["measures"]


class TestQualityEstimator:
    def test_full_evaluation_produces_scores_and_values(self, linear_flow, fast_estimator):
        profile = fast_estimator.evaluate(linear_flow)
        assert profile.flow_name == linear_flow.name
        assert profile.scores
        for characteristic, score in profile.scores.items():
            assert 0.0 <= score <= 100.0, characteristic
        # Every registered measure must have been evaluated (simulation ran).
        assert len(profile.values) == len(fast_estimator.registry)

    def test_static_only_evaluation(self, linear_flow, monkeypatch):
        """A registry without trace measures never runs the simulator."""
        estimator = QualityEstimator(registry=static_registry())

        def no_simulation(flow):
            raise AssertionError("a static-only estimator simulated a flow")

        monkeypatch.setattr(estimator, "simulate", no_simulation)
        profile = estimator.evaluate(linear_flow)
        trace_based = [m.name for m in default_registry() if m.requires_trace]
        for name in trace_based:
            assert name not in profile.values
        static = [m.name for m in default_registry() if not m.requires_trace]
        assert static and set(profile.values) == set(static)

    def test_estimates_are_deterministic_for_a_seed(self, linear_flow):
        a = QualityEstimator(settings=EstimationSettings(simulation_runs=2, seed=5)).evaluate(
            linear_flow
        )
        b = QualityEstimator(settings=EstimationSettings(simulation_runs=2, seed=5)).evaluate(
            linear_flow
        )
        assert a.scores == b.scores

    def test_precomputed_archive_is_reused(self, linear_flow, fast_estimator):
        archive = fast_estimator.simulate(linear_flow)
        profile = fast_estimator.evaluate(linear_flow, archive=archive)
        assert profile.value("process_cycle_time_ms").value == pytest.approx(
            archive.mean_cycle_time_ms()
        )

    def test_custom_registry(self, linear_flow):
        registry = MeasureRegistry([LongestPathLength(), Coupling()])
        estimator = QualityEstimator(registry=registry)
        profile = estimator.evaluate(linear_flow)
        assert set(profile.values) == {"longest_path_length", "coupling"}
        assert set(profile.scores) == {QualityCharacteristic.MANAGEABILITY}


class TestEstimationSettings:
    @pytest.mark.parametrize("runs", [0, -2])
    def test_fewer_than_one_simulation_run_is_rejected(self, runs):
        with pytest.raises(ValueError, match="simulation_runs"):
            EstimationSettings(simulation_runs=runs)

    def test_static_only_settings_still_need_a_valid_run_count(self):
        with pytest.raises(ValueError, match="simulation_runs"):
            QualityEstimator(
                registry=static_registry(), settings=EstimationSettings(simulation_runs=0)
            )
