"""Tests for the memoized estimation layer: ProfileCache and fingerprints."""

import dataclasses

import pytest

from repro.quality.composite import QualityProfile
from repro.cache import CacheStats, ProfileCache
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.simulator.resources import ResourceModel
from tests.conftest import set_properties
from tests.reference_fingerprint import reference_cache_key
from tests.keys import cache_key


class TestFlowFingerprint:
    def test_identical_copies_share_a_fingerprint(self, linear_flow):
        assert linear_flow.fingerprint() == linear_flow.copy().fingerprint()

    def test_name_and_lineage_are_ignored(self, linear_flow):
        renamed = linear_flow.copy(name="something_else")
        renamed.record_pattern("AddCheckpoint @ der")
        assert renamed.fingerprint() == linear_flow.fingerprint()

    def test_annotations_change_the_fingerprint(self, linear_flow):
        annotated = linear_flow.copy()
        annotated.annotations["encryption"] = True
        assert annotated.fingerprint() != linear_flow.fingerprint()

    def test_operation_properties_change_the_fingerprint(self, linear_flow):
        tweaked = linear_flow.copy()
        set_properties(tweaked, "der", cost_per_tuple=123.0)
        assert tweaked.fingerprint() != linear_flow.fingerprint()

    def test_structure_changes_the_fingerprint(self, linear_flow, branching_flow):
        assert linear_flow.fingerprint() != branching_flow.fingerprint()


class TestProfileCache:
    def _profile(self, name="p"):
        return QualityProfile(flow_name=name)

    def test_get_put_and_stats(self):
        cache = ProfileCache()
        assert cache.get(cache_key("k")) is None
        cache.put(cache_key("k"), self._profile())
        assert cache.get(cache_key("k")).flow_name == "p"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1
        assert cache_key("k") in cache

    def test_lru_eviction(self):
        cache = ProfileCache(max_entries=2)
        cache.put(cache_key("a"), self._profile("a"))
        cache.put(cache_key("b"), self._profile("b"))
        assert cache.get(cache_key("a")) is not None  # refresh "a"
        cache.put(cache_key("c"), self._profile("c"))
        assert cache_key("b") not in cache
        assert cache_key("a") in cache and cache_key("c") in cache
        assert cache.stats.evictions == 1

    def test_clear_resets_entries_and_stats(self):
        cache = ProfileCache()
        cache.put(cache_key("a"), self._profile())
        cache.get(cache_key("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            ProfileCache(max_entries=0)

    def test_flush_is_a_noop_and_tier_stats_report_memory(self):
        cache = ProfileCache()
        cache.put(cache_key("a"), self._profile())
        cache.flush()
        assert cache_key("a") in cache
        assert set(cache.tier_stats()) == {"memory"}

    def test_cache_stats_as_dict(self):
        stats = CacheStats(hits=3, misses=1)
        snapshot = stats.as_dict()
        assert snapshot["hits"] == 3
        assert snapshot["lookups"] == 4
        assert snapshot["hit_rate"] == 0.75


class TestCachedEstimator:
    def test_repeat_evaluation_is_memoized(self, linear_flow):
        cache = ProfileCache()
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=cache
        )
        first = estimator.evaluate(linear_flow)
        second = estimator.evaluate(linear_flow.copy())
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert first.scores == second.scores
        assert first.values == second.values

    def test_cache_hit_relabels_the_profile(self, linear_flow):
        cache = ProfileCache()
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=cache
        )
        estimator.evaluate(linear_flow)
        renamed = linear_flow.copy(name="rebranded")
        profile = estimator.evaluate(renamed)
        assert profile.flow_name == "rebranded"

    def test_cached_profiles_are_copies(self, linear_flow):
        cache = ProfileCache()
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=cache
        )
        first = estimator.evaluate(linear_flow)
        first.scores.clear()  # a caller mutating its copy...
        second = estimator.evaluate(linear_flow.copy())
        assert second.scores  # ...does not corrupt the memo

    def test_settings_partition_the_cache(self, linear_flow):
        cache = ProfileCache()
        simulated = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=cache
        )
        static = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3, use_simulation=False),
            cache=cache,
        )
        full = simulated.evaluate(linear_flow)
        screened = static.evaluate(linear_flow.copy())
        assert cache.stats.misses == 2  # distinct entries, no cross-talk
        assert "process_cycle_time_ms" in full.values
        assert "process_cycle_time_ms" not in screened.values

    def test_registries_partition_the_cache(self, linear_flow):
        from repro.quality.framework import MeasureRegistry, default_registry

        cache = ProfileCache()
        settings = EstimationSettings(simulation_runs=1, seed=3)
        full = QualityEstimator(settings=settings, cache=cache)
        restricted_registry = MeasureRegistry(
            m for m in default_registry() if not m.requires_trace
        )
        restricted = QualityEstimator(
            registry=restricted_registry, settings=settings, cache=cache
        )
        full_profile = full.evaluate(linear_flow)
        restricted_profile = restricted.evaluate(linear_flow.copy())
        assert cache.stats.misses == 2  # distinct entries per registry
        assert "process_cycle_time_ms" in full_profile.values
        assert "process_cycle_time_ms" not in restricted_profile.values

    @pytest.mark.parametrize(
        "settings",
        [
            EstimationSettings(),
            EstimationSettings(
                simulation_runs=2, seed=None, use_simulation=False, resources=ResourceModel(workers=8)
            ),
        ],
        ids=["default", "custom"],
    )
    def test_cache_key_matches_the_reference(self, linear_flow, branching_flow, settings):
        estimator = QualityEstimator(settings=settings)
        for flow in (linear_flow, branching_flow):
            assert estimator.cache_key(flow) == reference_cache_key(estimator, flow)

    def test_settings_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            EstimationSettings().seed = 1

    def test_changed_flow_invalidates_the_memo(self, linear_flow):
        cache = ProfileCache()
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=cache
        )
        before = estimator.evaluate(linear_flow)
        set_properties(linear_flow, "der", cost_per_tuple=50.0)
        after = estimator.evaluate(linear_flow)
        assert cache.stats.misses == 2  # the mutation produced a fresh key
        assert (
            after.values["process_cycle_time_ms"].value
            > before.values["process_cycle_time_ms"].value
        )

    def test_explicit_archive_bypasses_the_cache(self, linear_flow):
        cache = ProfileCache()
        estimator = QualityEstimator(
            settings=EstimationSettings(simulation_runs=1, seed=3), cache=cache
        )
        archive = estimator.simulate(linear_flow)
        estimator.evaluate(linear_flow, archive)
        assert cache.stats.lookups == 0
        assert len(cache) == 0
