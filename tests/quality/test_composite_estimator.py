"""Tests for composite measures, quality profiles and the estimator facade."""

import pickle

import pytest

from repro.io.jsonflow import profiles_to_dict
from repro.quality.composite import MeasureTable
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.quality.framework import (
    MeasureRegistry,
    QualityCharacteristic,
    default_registry,
)
from repro.quality.manageability import Coupling, LongestPathLength
from tests.conftest import static_registry
from tests.profiles import make_profile


class TestMeasureTable:
    def test_score_is_weighted_mean_of_normalised_values(self):
        table = MeasureRegistry([LongestPathLength(), Coupling()]).table()
        # equal weights (1.0) -> plain mean of 0.8 and 0.4 on a 0-100 scale
        assert table.scores([0.8, 0.4]) == (pytest.approx(60.0),)

    def test_zero_total_weight_scores_zero(self):
        table = MeasureTable(
            names=("m",),
            characteristics=(QualityCharacteristic.COST,),
            higher_is_better=(True,),
            units=("",),
            descriptions=("",),
            weights=(0.0,),
        )
        assert table.scores([0.7]) == (0.0,)

    def test_registry_table_composites_cover_registry(self):
        registry = default_registry()
        table = registry.table()
        assert registry.table() is table  # built once per set of measures
        assert list(table.composites) == registry.characteristics()
        for characteristic, columns in zip(table.composites, table.members):
            assert [table.names[column] for column in columns] == [
                m.name for m in registry.for_characteristic(characteristic)
            ]


class TestQualityProfile:
    def _profile(self, perf=50.0, dq=60.0, cycle=100.0):
        return make_profile(
            scores={
                QualityCharacteristic.PERFORMANCE: perf,
                QualityCharacteristic.DATA_QUALITY: dq,
            },
            measures=[
                ("cycle", QualityCharacteristic.PERFORMANCE, cycle, 0.5, False),
                ("nulls", QualityCharacteristic.DATA_QUALITY, 0.1, 0.9, False),
            ],
        )

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
        improved = self._profile(cycle=50.0)
        changes = improved.relative_changes(baseline)
        assert changes["cycle"] == pytest.approx(0.5)
        assert changes["nulls"] == pytest.approx(0.0)

    def test_characteristic_changes(self):
        baseline = self._profile(perf=50.0)
        better = self._profile(perf=75.0)
        changes = better.characteristic_changes(baseline)
        assert changes[QualityCharacteristic.PERFORMANCE] == pytest.approx(0.5)

    def test_codec_document_structure(self):
        document = profiles_to_dict([self._profile()])
        (table,) = document["tables"]
        assert table["names"] == ["cycle", "nulls"]
        assert table["characteristics"] == ["performance", "data_quality"]
        assert document["profiles"] == [[0, [100.0, 0.1], [0.5, 0.9], [50.0, 60.0]]]


class TestQualityEstimator:
    def test_full_evaluation_produces_scores_and_values(self, linear_flow, fast_estimator):
        profile = fast_estimator.evaluate(linear_flow)
        assert profile.table is fast_estimator.registry.table()
        assert pickle.loads(pickle.dumps(profile)) == profile
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
