"""Unit tests of the memory-over-disk composite cache tier."""

from __future__ import annotations


from repro.cache import (
    DiskProfileCache,
    ProfileCache,
    TieredProfileCache,
    build_profile_cache,
)
from repro.quality.composite import QualityProfile
from tests.keys import cache_key
from tests.profiles import tag, tagged


def _profile(name: str = "p") -> QualityProfile:
    return tagged(name)


def _tiered(tmp_path) -> TieredProfileCache:
    return TieredProfileCache(ProfileCache(), DiskProfileCache(tmp_path))


class TestTieredLookup:
    def test_write_through_and_memory_hit(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(cache_key("k"), _profile())
        assert cache.get(cache_key("k")) is not None
        # the memory tier answered; disk was never consulted for the get
        assert cache.memory.stats.hits == 1
        assert cache.disk.stats.lookups == 0
        # but the entry was written through to disk
        assert cache_key("k") in cache.disk

    def test_disk_hit_is_promoted_to_memory(self, tmp_path):
        DiskProfileCache(tmp_path).put(cache_key("k"), _profile("warm"))
        cache = _tiered(tmp_path)  # fresh memory tier, warm disk
        first = cache.get(cache_key("k"))
        assert first is not None and tag(first) == "warm"
        assert cache.memory.stats.misses == 1
        assert cache.disk.stats.hits == 1
        # the promotion makes the second lookup a pure memory hit
        assert cache.get(cache_key("k")) is not None
        assert cache.memory.stats.hits == 1
        assert cache.disk.stats.lookups == 1

    def test_logical_stats_count_once_per_lookup(self, tmp_path):
        DiskProfileCache(tmp_path).put(cache_key("warm"), _profile())
        cache = _tiered(tmp_path)
        cache.get(cache_key("warm"))  # disk hit
        cache.put(cache_key("new"), _profile())
        cache.get(cache_key("new"))  # memory hit
        cache.get(cache_key("absent"))  # miss everywhere
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 3

    def test_contains_and_len(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(cache_key("k"), _profile())
        assert cache_key("k") in cache
        assert cache_key("absent") not in cache
        assert len(cache) == 1


class TestTieredMaintenance:
    def test_flush_publishes_the_disk_buffer(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.disk.begin_write_batch()
        cache.put(cache_key("k"), _profile("buffered"))
        assert DiskProfileCache(tmp_path).get(cache_key("k")) is None  # not published yet
        cache.flush()
        assert tag(DiskProfileCache(tmp_path).get(cache_key("k"))) == "buffered"

    def test_clear_resets_both_tiers_and_all_stats(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(cache_key("k"), _profile())
        cache.get(cache_key("k"))
        cache.get(cache_key("absent"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        assert cache.memory.stats.lookups == 0
        assert cache.disk.stats.lookups == 0

    def test_tier_stats_shape(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(cache_key("k"), _profile())
        cache.get(cache_key("k"))
        tiers = cache.tier_stats()
        assert set(tiers) == {"overall", "memory", "disk"}
        assert tiers["overall"]["hits"] == 1
        for snapshot in tiers.values():
            assert {"hits", "misses", "evictions", "invalid", "lookups", "hit_rate"} <= set(
                snapshot
            )

    def test_single_tier_stats_shapes(self, tmp_path):
        assert set(ProfileCache().tier_stats()) == {"memory"}
        assert set(DiskProfileCache(tmp_path).tier_stats()) == {"disk"}


class TestBuildProfileCache:
    def test_memory_tier_ignores_other_knobs(self):
        cache = build_profile_cache(max_bytes=1 << 20, timeout=1.0)
        assert isinstance(cache, ProfileCache)

    def test_disk_and_tiered_tiers(self, tmp_path):
        """``cache_dir`` always means memory over disk."""
        tiered = build_profile_cache(cache_dir=tmp_path / "t", max_bytes=1 << 20)
        assert isinstance(tiered, TieredProfileCache)
        assert isinstance(tiered.disk, DiskProfileCache)
        assert tiered.disk.max_bytes == 1 << 20

    def test_rejects_bad_combinations(self):
        """The tier and wire knobs are gone from the builder."""
        import pytest

        for removed in (
            "tier",
            "url",
            "compression",
            "recovery_interval",
            "max_pending",
            "ring_replicas",
        ):
            with pytest.raises(TypeError, match=removed):
                build_profile_cache(**{removed: None})


class TestTieredGetMany:
    def test_batched_lookup_promotes_disk_hits_and_counts_logically(self, tmp_path):
        cache = _tiered(tmp_path)
        cache.put(cache_key("a"), _profile("pa"))
        cache.put(cache_key("b"), _profile("pb"))
        cache.memory.clear()  # simulate a fresh process: disk-only warmth
        results = cache.get_many([cache_key("a"), cache_key("gone"), cache_key("b")])
        assert [tag(r) if r else None for r in results] == ["pa", None, "pb"]
        # one logical count per key...
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        # ...and the disk hits were promoted into memory
        assert cache_key("a") in cache.memory and cache_key("b") in cache.memory
        cache.get_many([cache_key("a"), cache_key("b")])
        assert cache.disk.stats.hits == 2, "promoted entries stop touching disk"
