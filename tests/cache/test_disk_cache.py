"""Unit tests of the disk-backed profile cache: happy path and failure modes.

The disk tier's contract is "a damaged or stale cache degrades to a cold
cache, never to wrong results": corrupted entries, entries written by an
incompatible schema version, concurrent writers and size-cap eviction
must all surface as misses/evictions, not exceptions or stale profiles.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import threading

import pytest

from repro.cache import CACHE_SCHEMA_VERSION, CacheStats, DiskProfileCache
from repro.core import Planner
from repro.quality.composite import QualityProfile
from repro.quality.estimator import QualityEstimator
from tests.conftest import fast_planner_config
from tests.keys import cache_key
from tests.reference_fingerprint import reference_fingerprint
from tests.profiles import tag, tagged


def _profile(name: str = "p") -> QualityProfile:
    return tagged(name)


def _entry_files(cache: DiskProfileCache):
    """Entry files of every layout: the current one and the ``.pkl`` of schemas 1-3."""
    return sorted(cache.cache_dir.glob("*.profile.*"))


class TestDiskCacheBasics:
    def test_get_put_and_stats(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        assert cache.get(cache_key("k")) is None
        cache.put(cache_key("k"), _profile())
        hit = cache.get(cache_key("k"))
        assert hit is not None and tag(hit) == "p"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert len(cache) == 1
        assert cache_key("k") in cache
        assert cache_key("other") not in cache

    def test_entries_persist_across_instances(self, tmp_path):
        DiskProfileCache(tmp_path).put(cache_key("k"), _profile("persisted"))
        reopened = DiskProfileCache(tmp_path)
        hit = reopened.get(cache_key("k"))
        assert hit is not None and tag(hit) == "persisted"
        assert reopened.stats.hits == 1

    def test_atomic_publish_leaves_no_temp_files(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        for i in range(5):
            cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
        assert len(_entry_files(cache)) == 5

    def test_clear_drops_entries_and_stats(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("k"), _profile())
        cache.get(cache_key("k"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        assert _entry_files(cache) == []

    def test_invalid_max_bytes(self, tmp_path):
        with pytest.raises(ValueError):
            DiskProfileCache(tmp_path, max_bytes=0)

    def test_size_bytes_tracks_entries(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        assert cache.size_bytes() == 0
        cache.put(cache_key("k"), _profile())
        assert cache.size_bytes() > 0


class TestDiskCacheFailureModes:
    def test_corrupted_entry_is_a_miss_and_removed(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("k"), _profile())
        (path,) = _entry_files(cache)
        path.write_bytes(b"\x00garbage not json")
        assert cache.get(cache_key("k")) is None
        assert cache.stats.invalid == 1
        assert cache.stats.misses == 1
        assert not path.exists(), "the damaged entry must be dropped"
        # the cache heals: a re-put works and is readable again
        cache.put(cache_key("k"), _profile("healed"))
        assert tag(cache.get(cache_key("k"))) == "healed"

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("k"), _profile())
        (path,) = _entry_files(cache)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(cache_key("k")) is None
        assert cache.stats.invalid == 1

    def test_wrong_payload_shape_is_a_miss(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("k"), _profile())
        (path,) = _entry_files(cache)
        path.write_bytes(json.dumps(["not", "a", "payload", "dict"]).encode())
        assert cache.get(cache_key("k")) is None
        assert cache.stats.invalid == 1

    def test_version_mismatch_is_a_miss_and_removed(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("k"), _profile())
        (path,) = _entry_files(cache)
        payload = json.loads(path.read_bytes())
        payload["version"] = CACHE_SCHEMA_VERSION + 1
        path.write_bytes(json.dumps(payload).encode())
        assert cache.get(cache_key("k")) is None
        assert cache.stats.invalid == 1
        assert not path.exists(), "a stale-schema entry must be dropped"

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """A file holding another key's entry must never serve its profile."""
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("k"), _profile())
        (path,) = _entry_files(cache)
        payload = json.loads(path.read_bytes())
        payload["key"] = cache_key("some", "other", "key")
        path.write_bytes(json.dumps(payload).encode())
        assert cache.get(cache_key("k")) is None
        assert cache.stats.invalid == 1

    def test_schema_version_partitions_the_file_namespace(
        self, tmp_path, monkeypatch, linear_flow
    ):
        """Entries written under one schema version are invisible to another."""
        import repro.quality.estimator as estimator_module

        estimator = QualityEstimator()
        cache = DiskProfileCache(tmp_path)
        cache.put(estimator.cache_key(linear_flow), _profile())
        monkeypatch.setattr(estimator_module, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1)
        bumped = DiskProfileCache(tmp_path)
        # the version is hashed into the key: another file, a plain miss
        assert bumped.get(estimator.cache_key(linear_flow)) is None
        assert bumped.stats.misses == 1 and bumped.stats.invalid == 0

    def test_version_one_entries_are_invisible_to_a_plan(self, tmp_path, linear_flow):
        """A directory written by the version-1 layout plans like a cold cache.

        Version 1 keyed entries by the nested fingerprint tuple, named
        each file by the SHA-256 of ``repr((1, key))`` and stored the
        tuple in the payload.  One such entry per flow of the plan, each
        holding a wrong profile, must never be read: no disk hit, no
        error, and the plan of a cold cache.
        """
        config = fast_planner_config()
        cold = Planner(configuration=config).plan(linear_flow)
        seeder = Planner(configuration=config)
        estimator = seeder.estimator
        registry = tuple(
            sorted((m.name, m.weight, m.requires_trace) for m in estimator.registry)
        )
        flows = [linear_flow] + [alt.flow for alt in seeder.generator.generate_iter(linear_flow)]
        for flow in flows:
            key = (reference_fingerprint(flow), estimator.settings.fingerprint(), registry)
            name = hashlib.sha256(repr((1, key)).encode("utf-8")).hexdigest()
            payload = {"version": 1, "key": key, "profile": _profile("stale")}
            (tmp_path / f"{name}.profile.pkl").write_bytes(pickle.dumps(payload))

        planner = Planner(configuration=fast_planner_config(cache_dir=str(tmp_path)))
        result = planner.plan(linear_flow)
        disk = planner.profile_cache.disk
        assert disk.stats.hits == 0 and disk.stats.invalid == 0
        assert disk.stats.misses > 0
        assert result.fingerprint() == cold.fingerprint()

    def test_version_two_entries_are_invisible_to_a_plan(self, tmp_path, linear_flow):
        """A directory written by the version-2 layout plans like a cold cache.

        Version 2 named each file by its 64-hex key, the SHA-256 of
        ``repr((2, digest, settings, registry))``, where the flow digest
        was the SHA-256 of the ``repr`` of the nested fingerprint tuple
        with each operation entry replaced by the hex digest of its
        ``repr``.  One such entry per flow of the plan, each holding a
        wrong profile, must never be read: no disk hit, no error, and the
        plan of a cold cache.
        """

        def sha256(value):
            return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()

        config = fast_planner_config()
        cold = Planner(configuration=config).plan(linear_flow)
        seeder = Planner(configuration=config)
        estimator = seeder.estimator
        registry = tuple(
            sorted((m.name, m.weight, m.requires_trace) for m in estimator.registry)
        )
        flows = [linear_flow] + [alt.flow for alt in seeder.generator.generate_iter(linear_flow)]
        for flow in flows:
            entries, edges, annotations = reference_fingerprint(flow)
            digest = sha256((tuple((e[0], sha256(e)) for e in entries), edges, annotations))
            key = sha256((2, digest, estimator.settings.fingerprint(), registry))
            payload = {"version": 2, "key": key, "profile": _profile("stale")}
            (tmp_path / f"{key}.profile.pkl").write_bytes(pickle.dumps(payload))

        planner = Planner(configuration=fast_planner_config(cache_dir=str(tmp_path)))
        result = planner.plan(linear_flow)
        disk = planner.profile_cache.disk
        assert disk.stats.hits == 0 and disk.stats.invalid == 0
        assert disk.stats.misses > 0
        assert len(_entry_files(disk)) == 2 * len(flows)
        assert result.fingerprint() == cold.fingerprint()


#: An entry as the schema-3 layout wrote it: ``pickle.dumps`` of
#: ``{"version": 3, "key": ..., "profile": QualityProfile(...)}``, the
#: pickled profile of ``purchases_flow(rows_per_source=200)`` under a
#: two-measure registry, with its per-measure ``MeasureValue`` objects.
_SCHEMA_3_ENTRY = base64.b64decode(
    "gASVVwIAAAAAAAB9lCiMB3ZlcnNpb26USwOMA2tleZSMQDMyNjc0MTU1ZWJmMjIwZjhmYTE2NGIwNzVjMjBmNGQ0"
    "YTFlMzk4ZTM4YjhmNDExMDAxN2U0ZmUzZjg1MTY1ZjOUjAdwcm9maWxllIwXcmVwcm8ucXVhbGl0eS5jb21wb3Np"
    "dGWUjA5RdWFsaXR5UHJvZmlsZZSTlCmBlH2UKIwJZmxvd19uYW1llIwLc19wdXJjaGFzZXOUjAZzY29yZXOUfZSM"
    "F3JlcHJvLnF1YWxpdHkuZnJhbWV3b3JrlIwVUXVhbGl0eUNoYXJhY3RlcmlzdGljlJOUjA1tYW5hZ2VhYmlsaXR5"
    "lIWUUpRHQFK5WLR4P19zjAZ2YWx1ZXOUfZQojBNsb25nZXN0X3BhdGhfbGVuZ3RolGgOjAxNZWFzdXJlVmFsdWWU"
    "k5QpgZR9lCiMB21lYXN1cmWUaBaMDmNoYXJhY3RlcmlzdGljlGgTjAV2YWx1ZZRHQBQAAAAAAACMCm5vcm1hbGl6"
    "ZWSURz/rFmDXoiOxjBBoaWdoZXJfaXNfYmV0dGVylImMBHVuaXSUjAVlZGdlc5SMC2Rlc2NyaXB0aW9ulIwpTGVu"
    "Z3RoIG9mIHByb2Nlc3Mgd29ya2Zsb3cncyBsb25nZXN0IHBhdGiUdWKMCGNvdXBsaW5nlGgYKYGUfZQoaBtoJGgc"
    "aBNoHUc/6222222222geRz/k2Ja47dqyaB+JaCCMCmVkZ2VzL25vZGWUaCKMHENvdXBsaW5nIG9mIHByb2Nlc3Mg"
    "d29ya2Zsb3eUdWJ1dWJ1Lg=="
)


class TestSchemaThreeDirectory:
    """A ``cache_dir`` written by the schema-3 layout: pickled ``.profile.pkl`` entries."""

    @staticmethod
    def _seed(tmp_path, monkeypatch, flows, estimator):
        """One schema-3 entry per flow, named by the key schema 3 gave it."""
        import repro.quality.estimator as estimator_module

        with monkeypatch.context() as patch:
            patch.setattr(estimator_module, "CACHE_SCHEMA_VERSION", 3)
            keys = [estimator.cache_key(flow) for flow in flows]
        paths = [tmp_path / f"{key}.profile.pkl" for key in keys]
        for path in paths:
            path.write_bytes(_SCHEMA_3_ENTRY)
        return keys, paths

    def test_old_entries_read_as_misses_and_never_raise(
        self, tmp_path, monkeypatch, linear_flow
    ):
        config = fast_planner_config()
        cold = Planner(configuration=config).plan(linear_flow)
        seeder = Planner(configuration=config)
        flows = [linear_flow] + [alt.flow for alt in seeder.generator.generate_iter(linear_flow)]
        keys, paths = self._seed(tmp_path, monkeypatch, flows, seeder.estimator)

        disk = DiskProfileCache(tmp_path)
        assert disk.get_many(keys) == [None] * len(keys)
        assert disk.get(keys[0]) is None and keys[0] not in disk
        planner = Planner(configuration=fast_planner_config(cache_dir=str(tmp_path)))
        result = planner.plan(linear_flow)
        disk = planner.profile_cache.disk
        assert disk.stats.hits == 0 and disk.stats.invalid == 0
        assert disk.stats.misses > 0
        assert result.fingerprint() == cold.fingerprint()
        assert all(path.exists() for path in paths)  # never read, so never dropped

    def test_the_size_cap_evicts_old_entries(self, tmp_path, monkeypatch, linear_flow):
        other = linear_flow.copy(name="other")
        other.annotations["marker"] = True
        _, paths = self._seed(tmp_path, monkeypatch, [linear_flow, other], QualityEstimator())
        for path in paths:
            os.utime(path, (1, 1))  # older than anything written below
        old_bytes = sum(path.stat().st_size for path in paths)
        cache = DiskProfileCache(tmp_path)
        assert cache.size_bytes() == old_bytes and len(cache) == len(paths)

        probe = DiskProfileCache(tmp_path / "probe")
        probe.put(cache_key("new"), _profile("new"))
        capped = DiskProfileCache(tmp_path, max_bytes=probe.size_bytes())
        capped.put(cache_key("new"), _profile("new"))
        assert not any(path.exists() for path in paths)
        assert capped.stats.evictions == len(paths)
        assert capped.size_bytes() == probe.size_bytes()
        assert tag(capped.get(cache_key("new"))) == "new"
        capped.clear()
        assert _entry_files(capped) == []


class TestDiskCacheEviction:
    def test_evicts_least_recently_used_under_cap(self, tmp_path):
        cache = DiskProfileCache(tmp_path)  # uncapped while seeding
        for i in range(4):
            cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
        entry_size = cache.size_bytes() // 4
        # age the entries explicitly (same-second writes share mtimes)
        for age, key in enumerate(["k0", "k1", "k2", "k3"]):
            path = cache._path(cache_key(key))
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        # a hit refreshes k0, making k1 the least recently used
        assert cache.get(cache_key("k0")) is not None
        cache.max_bytes = entry_size * 3
        cache.put(cache_key("k4"), _profile("p4"))
        assert cache.stats.evictions >= 1
        assert cache_key("k1") not in cache, "the least-recently-used entry goes first"
        assert cache_key("k0") in cache, "the freshly hit entry survives"
        assert cache_key("k4") in cache, "the newest entry survives"
        assert cache.size_bytes() <= cache.max_bytes

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        for i in range(20):
            cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
        assert cache.stats.evictions == 0
        assert len(cache) == 20


class TestDiskCacheBatching:
    def test_batched_puts_are_visible_but_not_published(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.begin_write_batch()
        cache.put(cache_key("k"), _profile("buffered"))
        assert cache_key("k") in cache
        assert len(cache) == 1
        assert tag(cache.get(cache_key("k"))) == "buffered"  # served from the buffer
        assert _entry_files(cache) == []  # nothing on disk yet
        other = DiskProfileCache(tmp_path)
        assert other.get(cache_key("k")) is None  # other handles cannot see the buffer

    def test_flush_publishes_the_buffer(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.begin_write_batch()
        for i in range(3):
            cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
        cache.flush()
        assert len(_entry_files(cache)) == 3
        other = DiskProfileCache(tmp_path)
        assert tag(other.get(cache_key("k1"))) == "p1"
        cache.flush()  # idempotent on an empty buffer

    def test_flush_applies_the_size_cap_once(self, tmp_path):
        seed = DiskProfileCache(tmp_path)
        seed.put(cache_key("probe"), _profile())
        entry_size = seed.size_bytes()
        seed.clear()
        cache = DiskProfileCache(tmp_path, max_bytes=entry_size * 2)
        cache.begin_write_batch()
        for i in range(5):
            cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
        assert cache.stats.evictions == 0  # nothing published yet
        cache.flush()
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.stats.evictions >= 3


class TestDiskCacheConcurrency:
    def test_concurrent_writers_and_readers_one_directory(self, tmp_path):
        """Two handles (as two planners would hold) hammer one cache_dir."""
        writers = [DiskProfileCache(tmp_path) for _ in range(2)]
        errors: list[Exception] = []

        def hammer(cache: DiskProfileCache, worker: int) -> None:
            try:
                for i in range(50):
                    key = cache_key(f"k{i % 10}")
                    cache.put(key, _profile(f"w{worker}-{i}"))
                    hit = cache.get(key)
                    assert hit is not None  # my own write (or the peer's) is always readable
                    assert tag(hit).startswith("w")
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(cache, n))
            for n, cache in enumerate(writers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # last-writer-wins left exactly one valid entry per key
        survivor = DiskProfileCache(tmp_path)
        assert len(survivor) == 10
        for i in range(10):
            assert survivor.get(cache_key(f"k{i}")) is not None
        assert survivor.stats.invalid == 0


class TestCacheStatsInvalidCounter:
    def test_as_dict_includes_invalid(self):
        stats = CacheStats(hits=3, misses=1, invalid=2)
        snapshot = stats.as_dict()
        assert snapshot["invalid"] == 2
        assert snapshot["lookups"] == 4


class TestGetMany:
    def test_get_many_matches_sequential_gets_and_counts_once_per_key(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("a"), _profile("pa"))
        cache.put(cache_key("b"), _profile("pb"))
        results = cache.get_many([cache_key("a"), cache_key("missing"), cache_key("b")])
        assert [tag(r) if r else None for r in results] == ["pa", None, "pb"]
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1

    def test_get_many_serves_the_pending_buffer(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        cache.begin_write_batch()
        cache.put(cache_key("buffered"), _profile("pending"))
        results = cache.get_many([cache_key("buffered"), cache_key("absent")])
        assert tag(results[0]) == "pending"
        assert results[1] is None

    def test_version_mismatch_is_invalid_and_dropped(self, tmp_path):
        """The batched path a cache server reads through verifies entries too."""
        cache = DiskProfileCache(tmp_path)
        cache.put(cache_key("stale"), _profile())
        cache.put(cache_key("fresh"), _profile("fresh"))
        path = cache._path(cache_key("stale"))
        payload = json.loads(path.read_bytes())
        payload["version"] = CACHE_SCHEMA_VERSION + 999
        path.write_bytes(json.dumps(payload).encode())
        results = cache.get_many([cache_key("stale"), cache_key("fresh")])
        assert results[0] is None
        assert tag(results[1]) == "fresh"
        assert cache.stats.invalid == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert not path.exists(), "stale entries are dropped, not served"


class TestBackgroundEviction:
    def _capped_cache(self, tmp_path, entries: int = 5):
        probe = DiskProfileCache(tmp_path / "probe")
        probe.put(cache_key("probe"), _profile())
        entry_size = probe.size_bytes()
        cache = DiskProfileCache(tmp_path / "store", max_bytes=entry_size * 2)
        return cache, entries

    def test_sweeper_moves_eviction_off_the_write_path(self, tmp_path):
        cache, entries = self._capped_cache(tmp_path)
        cache.start_background_eviction(interval=3600.0)  # never fires in-test
        try:
            for i in range(entries):
                cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
            # the write path no longer sweeps: the store exceeds the cap
            assert cache.size_bytes() > cache.max_bytes
            assert cache.stats.evictions == 0
        finally:
            cache.stop_background_eviction()  # final sweep restores the cap
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.stats.evictions >= 1

    def test_sweeper_thread_eventually_sweeps(self, tmp_path):
        import time

        cache, entries = self._capped_cache(tmp_path)
        cache.start_background_eviction(interval=0.02)
        try:
            for i in range(entries):
                cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
            deadline = time.monotonic() + 5.0
            while cache.size_bytes() > cache.max_bytes:
                assert time.monotonic() < deadline, "sweeper never caught up"
                time.sleep(0.01)
        finally:
            cache.stop_background_eviction(final_sweep=False)
        assert cache.stats.evictions >= 1

    def test_inline_sweep_restored_after_stop(self, tmp_path):
        cache, entries = self._capped_cache(tmp_path)
        cache.start_background_eviction(interval=3600.0)
        cache.stop_background_eviction()
        for i in range(entries):
            cache.put(cache_key(f"k{i}"), _profile(f"p{i}"))
        assert cache.size_bytes() <= cache.max_bytes  # in-line sweeping again

    def test_double_start_rejected_and_interval_validated(self, tmp_path):
        cache = DiskProfileCache(tmp_path)
        with pytest.raises(ValueError):
            cache.start_background_eviction(interval=0)
        cache.start_background_eviction(interval=3600.0)
        try:
            with pytest.raises(RuntimeError):
                cache.start_background_eviction(interval=3600.0)
        finally:
            cache.stop_background_eviction()
        cache.start_background_eviction(interval=3600.0)  # restartable after stop
        cache.stop_background_eviction()
