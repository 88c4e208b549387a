"""Golden-metric derivation and threshold gating (:mod:`repro.obs.golden`)."""

import pytest

from repro.obs.golden import GoldenThresholds, Violation, evaluate_golden, golden_metrics
from repro.obs.metrics import MetricsRegistry


def _snapshot_with_traffic() -> dict:
    registry = MetricsRegistry()
    registry.counter("cache.memory.hits").inc(9)
    registry.counter("cache.memory.misses").inc(1)
    registry.gauge("queue.depth").set(4)
    registry.gauge("fleet.workers_alive").set(2)
    histogram = registry.histogram("planner.plan_seconds")
    for value in (0.1, 0.2, 0.3, 0.4):
        histogram.observe(value)
    return registry.snapshot()


class TestGoldenMetrics:
    def test_derives_all_signals_from_a_snapshot(self):
        golden = golden_metrics(_snapshot_with_traffic())
        assert golden["cache_hit_rate"] == pytest.approx(0.9)
        assert golden["queue_depth"] == 4.0
        assert golden["workers_alive"] == 2.0
        assert golden["plan_count"] == 4.0
        assert golden["plan_p50_seconds"] > 0
        assert golden["plan_p99_seconds"] >= golden["plan_p50_seconds"]

    def test_missing_signals_are_omitted_not_zeroed(self):
        assert golden_metrics(MetricsRegistry().snapshot()) == {}

    def test_accepts_a_full_metrics_payload(self):
        payload = {"server": "cache", "metrics": _snapshot_with_traffic()}
        golden = golden_metrics(payload)
        assert golden["cache_hit_rate"] == pytest.approx(0.9)

    def test_declared_golden_values_win_over_derived(self):
        payload = {
            "metrics": _snapshot_with_traffic(),
            "golden": {"cache_hit_rate": 0.42, "plan_p99_seconds": 1.5},
        }
        golden = golden_metrics(payload)
        assert golden["cache_hit_rate"] == 0.42
        assert golden["plan_p99_seconds"] == 1.5
        # signals the payload does not declare still derive
        assert golden["queue_depth"] == 4.0

    def test_hit_rate_sums_every_tier(self):
        registry = MetricsRegistry()
        registry.counter("cache.memory.hits").inc(1)
        registry.counter("cache.disk.hits").inc(1)
        registry.counter("cache.http.misses").inc(2)
        golden = golden_metrics(registry.snapshot())
        assert golden["cache_hit_rate"] == pytest.approx(0.5)


class TestEvaluateGolden:
    def test_healthy_snapshot_has_no_violations(self):
        assert evaluate_golden(_snapshot_with_traffic()) == []

    def test_floor_violation(self):
        registry = MetricsRegistry()
        registry.counter("cache.memory.hits").inc(1)
        registry.counter("cache.memory.misses").inc(9)
        violations = evaluate_golden(
            registry.snapshot(), GoldenThresholds(min_cache_hit_rate=0.5)
        )
        assert [v.metric for v in violations] == ["cache_hit_rate"]
        assert violations[0].comparison == ">="
        assert "cache_hit_rate" in violations[0].describe()

    def test_ceiling_violation(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").set(500)
        violations = evaluate_golden(
            registry.snapshot(), GoldenThresholds(max_queue_depth=100)
        )
        assert [v.metric for v in violations] == ["queue_depth"]
        assert violations[0].comparison == "<="

    def test_none_threshold_disables_the_gate(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").set(10**9)
        thresholds = GoldenThresholds(max_queue_depth=None, min_workers_alive=None)
        assert evaluate_golden(registry.snapshot(), thresholds) == []

    def test_missing_signals_are_skipped_not_failed(self):
        # an empty snapshot reports nothing, so nothing can violate
        assert evaluate_golden(MetricsRegistry().snapshot()) == []

    def test_accepts_an_already_derived_golden_dict(self):
        violations = evaluate_golden(
            {"cache_hit_rate": 0.1, "workers_alive": 0.0},
            GoldenThresholds(min_cache_hit_rate=0.5, min_workers_alive=1.0),
        )
        assert {v.metric for v in violations} == {"cache_hit_rate", "workers_alive"}

    def test_violation_is_a_frozen_value_object(self):
        violation = Violation("queue_depth", 200.0, 100.0, "<=")
        with pytest.raises(AttributeError):
            violation.value = 0.0
