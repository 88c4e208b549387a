"""Observability layer: metrics registry, spans and golden-metrics gates.

See :mod:`repro.obs.metrics` for the instrument core and
:mod:`repro.obs.golden` for the derived health definition shared by the
``/metrics`` endpoints, ``tools/obs.py`` dashboard and the benchmarks.
"""

from repro.obs.golden import (
    GoldenThresholds,
    Violation,
    evaluate_golden,
    golden_metrics,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    default_registry,
    maybe_timer,
    render_prometheus,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "DEFAULT_LATENCY_BOUNDS",
    "default_registry",
    "maybe_timer",
    "render_prometheus",
    "GoldenThresholds",
    "Violation",
    "evaluate_golden",
    "golden_metrics",
]
