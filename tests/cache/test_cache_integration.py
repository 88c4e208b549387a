"""Cache tiers wired through the planner, session and evaluator.

The acceptance bar of the subsystem: every cache tier produces
byte-identical planning results (property-tested over seeded random
flows), the tier follows from ``cache_dir`` / ``cache_urls``, defaults
reproduce the memory-only behaviour, two planners can share one
``cache_dir``, and the evaluation stream writes profiles back to disk
in one batch when it ends.
"""

from __future__ import annotations

import pytest

from repro.cache import DiskProfileCache, ProfileCache, TieredProfileCache
from repro.core import Planner, ProcessingConfiguration, RedesignSession
from repro.workloads import random_flow
from repro.workloads.generator import RandomFlowConfig


class TestConfigurationValidation:
    def test_defaults_select_the_memory_tier(self, make_config):
        planner = Planner(configuration=make_config())
        assert isinstance(planner.profile_cache, ProfileCache)

    def test_disk_and_tiered_require_cache_dir(self, tmp_path):
        """There is no tier knob: ``cache_dir`` alone selects memory over disk."""
        with pytest.raises(TypeError):
            ProcessingConfiguration(cache_tier="disk")  # type: ignore[call-arg]
        with pytest.raises(ValueError, match="mutually exclusive"):
            ProcessingConfiguration(cache_dir=str(tmp_path), cache_urls=("http://x",))

    def test_unknown_tier_rejected(self):
        """The removed tier and wire knobs are unknown fields now."""
        for removed in (
            "cache_tier",
            "cache_url",
            "cache_compression",
            "cache_recovery_interval",
            "cache_max_pending",
            "fleet_ring_replicas",
        ):
            with pytest.raises(TypeError, match=removed):
                ProcessingConfiguration(**{removed: None})

    def test_cache_max_bytes_needs_a_disk_tier(self, tmp_path):
        with pytest.raises(ValueError, match="cache_max_bytes requires cache_dir"):
            ProcessingConfiguration(cache_max_bytes=1 << 20)
        with pytest.raises(ValueError, match="cache_max_bytes requires cache_dir"):
            ProcessingConfiguration(cache_urls=("http://x",), cache_max_bytes=1 << 20)
        with pytest.raises(ValueError, match="cache_max_bytes"):
            ProcessingConfiguration(cache_dir=str(tmp_path), cache_max_bytes=0)
        # valid combination passes
        config = ProcessingConfiguration(cache_dir=str(tmp_path), cache_max_bytes=1 << 20)
        assert config.cache_max_bytes == 1 << 20

    def test_planner_builds_the_configured_tier(self, make_config, tmp_path):
        from repro.fleet import ShardedProfileCache

        ring = Planner(configuration=make_config(cache_urls=("http://127.0.0.1:9",)))
        assert isinstance(ring.profile_cache, ShardedProfileCache)
        assert ring.profile_cache.urls == ("http://127.0.0.1:9",)
        ring.profile_cache.close()
        tiered = Planner(
            configuration=make_config(cache_dir=str(tmp_path / "t"), cache_max_bytes=1 << 20)
        )
        assert isinstance(tiered.profile_cache, TieredProfileCache)
        assert isinstance(tiered.profile_cache.disk, DiskProfileCache)
        assert tiered.profile_cache.disk.max_bytes == 1 << 20
        # both estimators (full + screening) share the one backend
        assert tiered.estimator.cache is tiered.profile_cache
        assert tiered.screening_estimator.cache is tiered.profile_cache


class TestTierEquivalence:
    @pytest.mark.parametrize("flow_seed", [11, 29, 53])
    def test_all_tiers_plan_byte_identically(self, make_config, tmp_path, flow_seed):
        """Property: cache tiers -- including the network one -- trade
        wall-clock, never results.

        The arms are the three configurable tiers (memory, ``cache_dir``,
        a one-URL ``cache_urls`` ring), an uncached run, and a reference
        planner injected with a bare single-server ``HTTPProfileCache``.
        """
        from repro.cache import HTTPProfileCache
        from repro.service import CacheServer

        flow = random_flow(RandomFlowConfig(operations=6, rows_per_source=500, seed=flow_seed))
        server = CacheServer(DiskProfileCache(tmp_path / f"srv{flow_seed}"))
        reference_server = CacheServer(DiskProfileCache(tmp_path / f"ref{flow_seed}"))
        with server, reference_server:
            fingerprints = {}
            for name, extra in {
                "memory": {},
                "cache_dir": dict(cache_dir=str(tmp_path / f"t{flow_seed}")),
                "cache_urls": dict(cache_urls=(server.url,)),
                "uncached": dict(cache_profiles=False),
            }.items():
                result = Planner(configuration=make_config(**extra)).plan(flow)
                fingerprints[name] = result.fingerprint()
            reference_cache = HTTPProfileCache(reference_server.url)
            reference = Planner(configuration=make_config(), profile_cache=reference_cache)
            fingerprints["http_reference"] = reference.plan(flow).fingerprint()
            reference_cache.close()
            assert len(set(fingerprints.values())) == 1, sorted(fingerprints)
            # both network arms really went through their servers
            assert server.stats.lookups > 0
            assert reference_server.stats.lookups > 0

    def test_warm_disk_rerun_is_identical_and_all_hits(self, make_config, tmp_path, linear_flow):
        config = make_config(cache_dir=str(tmp_path))
        cold = Planner(configuration=config)
        cold_result = cold.plan(linear_flow)
        warm = Planner(configuration=config)  # fresh process stand-in: empty memory tier
        warm_result = warm.plan(linear_flow)
        assert warm_result.fingerprint() == cold_result.fingerprint()
        tiers = warm.profile_cache.tier_stats()
        assert tiers["overall"]["misses"] == 0
        assert tiers["disk"]["hits"] == tiers["overall"]["hits"]


class TestSharedCacheDir:
    def test_two_planners_share_one_cache_dir(self, make_config, tmp_path, linear_flow):
        """The 'parallel sessions' scenario: planner B reuses A's profiles."""
        config = make_config(cache_dir=str(tmp_path))
        a = Planner(configuration=config)
        b = Planner(configuration=config)
        result_a = a.plan(linear_flow)
        result_b = b.plan(linear_flow)
        assert result_a.fingerprint() == result_b.fingerprint()
        # b's memory front started empty: every hit came off a's disk entries
        assert b.profile_cache.stats.misses == 0
        assert b.profile_cache.stats.hits == b.profile_cache.stats.lookups
        assert b.profile_cache.disk.stats.hits > 0

    def test_eviction_under_cache_max_bytes_during_planning(
        self, make_config, tmp_path, linear_flow
    ):
        probe = Planner(configuration=make_config(cache_dir=str(tmp_path / "probe")))
        reference = probe.plan(linear_flow)
        probe_disk = probe.profile_cache.disk
        entry_bytes = probe_disk.size_bytes() // max(len(probe_disk), 1)
        capped_config = make_config(
            cache_dir=str(tmp_path / "capped"),
            cache_max_bytes=entry_bytes * 2,
        )
        capped = Planner(configuration=capped_config)
        capped_result = capped.plan(linear_flow)
        # the cap squeezed the store without changing any result
        assert capped_result.fingerprint() == reference.fingerprint()
        capped_disk = capped.profile_cache.disk
        assert capped_disk.stats.evictions > 0
        assert capped_disk.size_bytes() <= capped_config.cache_max_bytes


class TestSessionCacheStats:
    def test_session_stats_include_the_tier_breakdown(self, make_config, tmp_path, linear_flow):
        session = RedesignSession(
            linear_flow,
            configuration=make_config(cache_dir=str(tmp_path)),
        )
        session.iterate()
        stats = session.cache_stats()
        assert stats["lookups"] > 0
        assert set(stats["tiers"]) == {"overall", "memory", "disk"}
        assert stats["tiers"]["overall"]["lookups"] == stats["lookups"]

    def test_memory_session_stats_keep_the_flat_shape(self, make_config, linear_flow):
        session = RedesignSession(linear_flow, configuration=make_config())
        session.iterate()
        stats = session.cache_stats()
        assert stats["lookups"] > 0
        assert set(stats["tiers"]) == {"memory"}

    def test_disabled_cache_yields_empty_stats(self, make_config, linear_flow):
        session = RedesignSession(
            linear_flow, configuration=make_config(cache_profiles=False)
        )
        session.iterate()
        assert session.cache_stats() == {}


class TestDiskWriteBack:
    def test_stream_writes_back_on_teardown(self, make_config, tmp_path, linear_flow):
        """Same results as the memory tier, disk populated when the stream ends."""
        sequential = Planner(configuration=make_config()).plan(linear_flow)
        disk_config = make_config(cache_dir=str(tmp_path))
        disk_planner = Planner(configuration=disk_config)
        planned = disk_planner.plan(linear_flow)
        assert planned.fingerprint() == sequential.fingerprint()
        # the stream's batched write-back published every profile on teardown
        disk = disk_planner.profile_cache.disk
        assert not disk.batch_writes, "batching must be restored after the stream"
        assert len(disk) == disk_planner.profile_cache.stats.misses
        # a fresh planner is served entirely from the warm directory
        warm = Planner(configuration=disk_config)
        warm_result = warm.plan(linear_flow)
        assert warm_result.fingerprint() == sequential.fingerprint()
        assert warm.profile_cache.stats.misses == 0

    def test_bare_evaluator_reads_through_a_prewarmed_directory(
        self, make_config, tmp_path, linear_flow
    ):
        config = make_config(cache_dir=str(tmp_path))
        Planner(configuration=config).plan(linear_flow)  # populates the directory

        fresh = Planner(configuration=config)
        alternatives = list(fresh.generator.generate_iter(linear_flow))
        evaluated = fresh.evaluator.evaluate(alternatives)
        assert fresh.profile_cache.stats.misses == 0
        assert fresh.profile_cache.stats.hits == len(alternatives)
        assert all(alternative.profile.values for alternative in evaluated)
