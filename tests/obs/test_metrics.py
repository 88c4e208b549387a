"""Instrument semantics of the metrics core (:mod:`repro.obs.metrics`)."""

import random
import time

import pytest

from repro.core.configuration import ProcessingConfiguration
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    MetricsRegistry,
    Timer,
    default_registry,
    maybe_timer,
    render_prometheus,
)
from repro.service import configuration_from_request


class TestCounter:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("a.hits").inc()
        registry.counter("a.hits").inc()
        assert registry.counter("a.hits").value == 2

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("a.hits").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue.depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistogram:
    def test_count_sum_min_max(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in (0.001, 0.01, 0.1):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.111)
        data = histogram.as_dict()
        assert data["min"] == pytest.approx(0.001)
        assert data["max"] == pytest.approx(0.1)

    def test_count_equals_bucket_sum(self):
        histogram = MetricsRegistry().histogram("lat")
        for _ in range(500):
            histogram.observe(random.random())
        data = histogram.as_dict()
        assert data["count"] == sum(count for _, count in data["buckets"]) == 500

    def test_quantiles_within_one_bucket_width(self):
        """The documented accuracy bound: off by at most one bucket."""
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        values = sorted(random.Random(7).uniform(0.0002, 2.0) for _ in range(2000))
        for value in values:
            histogram.observe(value)
        for q in (0.50, 0.95, 0.99):
            exact = values[min(len(values) - 1, int(q * len(values)))]
            estimate = histogram.quantile(q)
            # locate the bucket holding the exact value; the estimate
            # must land within that bucket's [lower, upper] span
            bounds = list(histogram.bounds)
            upper = next((b for b in bounds if exact <= b), values[-1])
            index = bounds.index(upper) if upper in bounds else len(bounds)
            lower = bounds[index - 1] if index > 0 else 0.0
            assert lower <= estimate <= max(upper, values[-1])

    def test_quantiles_clamped_to_observed_range(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(0.007)
        for q in (0.0, 0.5, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.007)

    def test_overflow_bucket_catches_everything_above_the_last_bound(self):
        histogram = MetricsRegistry().histogram("lat", bounds=(1.0,))
        histogram.observe(1000.0)
        data = histogram.as_dict()
        assert data["buckets"] == [[1.0, 0], ["+Inf", 1]]
        assert data["max"] == 1000.0

    def test_empty_histogram_quantile_is_zero(self):
        assert MetricsRegistry().histogram("lat").quantile(0.99) == 0.0

    def test_quantile_argument_validated(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("lat").quantile(1.5)


class TestTimer:
    def test_timer_observes_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("span") as span:
            time.sleep(0.001)
        assert span.elapsed > 0
        assert registry.histogram("span").count == 1

    def test_maybe_timer_without_registry_measures_but_records_nothing(self):
        with maybe_timer(None, "span") as span:
            time.sleep(0.001)
        assert isinstance(span, Timer)
        assert span.elapsed > 0


class TestSnapshot:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(0.01)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 7}
        assert snapshot["histograms"]["h"]["count"] == 1
        # as_dict is the repo-wide stats-contract alias
        assert registry.as_dict() == snapshot

    def test_reset_drops_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(0.01)
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMetricsRegistryField:
    def test_metrics_are_off_by_default(self):
        assert ProcessingConfiguration().metrics_registry is None

    def test_a_non_registry_is_rejected(self):
        with pytest.raises(ValueError, match="metrics_registry"):
            ProcessingConfiguration(metrics_registry=object())

    def test_wire_switch_off_leaves_metrics_off(self):
        assert configuration_from_request({"metrics_enabled": False}).metrics_registry is None

    def test_wire_switch_without_a_registry_uses_the_default(self):
        configuration = configuration_from_request({"metrics_enabled": True})
        assert configuration.metrics_registry is default_registry()

    def test_wire_switch_uses_the_planning_registry(self):
        registry = MetricsRegistry()
        configuration = configuration_from_request({"metrics_enabled": True}, registry=registry)
        assert configuration.metrics_registry is registry


class TestPrometheusRendering:
    def test_all_instrument_kinds_render(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3)
        registry.gauge("queue.depth").set(2)
        registry.histogram("plan_seconds", bounds=(1.0,)).observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_cache_hits counter" in text
        assert "repro_cache_hits 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 2" in text
        assert "# TYPE repro_plan_seconds histogram" in text
        assert 'repro_plan_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_plan_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_plan_seconds_sum 0.5" in text
        assert "repro_plan_seconds_count 1" in text
        assert text.endswith("\n")

    def test_bucket_series_is_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        text = render_prometheus(registry.snapshot())
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="2.0"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text

    def test_names_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("cache.memory.get-many/total").inc()
        text = render_prometheus(registry.snapshot())
        assert "repro_cache_memory_get_many_total 1" in text


def test_default_latency_bounds_are_sorted_and_positive():
    assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)
    assert all(bound > 0 for bound in DEFAULT_LATENCY_BOUNDS)
