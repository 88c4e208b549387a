"""Golden metrics: the one health definition benchmarks and dashboards share.

Four top-line signals summarise a fleet member (the observability doc
calls them the *golden metrics*): cache hit rate, p50/p99 plan latency,
queue depth and worker liveness.  :func:`golden_metrics` derives them
from a metrics snapshot (a :meth:`MetricsRegistry.snapshot` dict or a
``GET /metrics`` payload), and :func:`evaluate_golden` gates them
against configurable :class:`GoldenThresholds`, returning one
:class:`Violation` per breach.

Missing signals are *skipped*, not failed: a cache shard has no queue,
a front-end has no cache counters, and a threshold can only gate what
the endpoint actually reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "GoldenThresholds",
    "Violation",
    "golden_metrics",
    "evaluate_golden",
]


@dataclass(frozen=True)
class GoldenThresholds:
    """Configurable gates over the golden metrics.

    Set a field to ``None`` to disable that gate.  The defaults are
    deliberately loose -- they catch a cold cache, a stuck queue or a
    dead worker pool, not a slow afternoon.
    """

    min_cache_hit_rate: float | None = 0.5
    max_plan_p50_seconds: float | None = 60.0
    max_plan_p99_seconds: float | None = 300.0
    max_queue_depth: float | None = 100.0
    min_workers_alive: float | None = 1.0


@dataclass(frozen=True)
class Violation:
    """One golden-metric threshold breach."""

    metric: str
    value: float
    threshold: float
    comparison: str  # ">=" when the value must stay at or above, "<=" below

    def describe(self) -> str:
        return (
            f"{self.metric}={self.value:.4g} violates "
            f"{self.metric} {self.comparison} {self.threshold:.4g}"
        )


def _metrics_of(snapshot: Mapping[str, object]) -> Mapping[str, object]:
    """Accept either a raw registry snapshot or a ``/metrics`` payload."""
    inner = snapshot.get("metrics")
    if isinstance(inner, Mapping) and (
        "counters" in inner or "gauges" in inner or "histograms" in inner
    ):
        return inner
    return snapshot


def golden_metrics(snapshot: Mapping[str, object]) -> dict[str, float]:
    """Derive the golden metrics present in ``snapshot``.

    Returns a dict with any of ``cache_hit_rate``, ``plan_p50_seconds``,
    ``plan_p99_seconds``, ``plan_count``, ``queue_depth`` and
    ``workers_alive`` -- omitting the ones the snapshot has no data for.
    If the snapshot is a full ``/metrics`` payload that already carries a
    ``"golden"`` dict, the derived values are unioned over it (the
    payload's own figures win).
    """
    metrics = _metrics_of(snapshot)
    counters = metrics.get("counters", {}) or {}
    gauges = metrics.get("gauges", {}) or {}
    histograms = metrics.get("histograms", {}) or {}

    golden: dict[str, float] = {}

    hits = sum(value for name, value in counters.items() if name.endswith(".hits"))
    misses = sum(value for name, value in counters.items() if name.endswith(".misses"))
    if hits or misses:
        golden["cache_hit_rate"] = hits / (hits + misses)

    plan = histograms.get("planner.plan_seconds")
    if plan and plan.get("count"):
        golden["plan_count"] = float(plan["count"])
        golden["plan_p50_seconds"] = float(plan["p50"])
        golden["plan_p99_seconds"] = float(plan["p99"])

    if "queue.depth" in gauges:
        golden["queue_depth"] = float(gauges["queue.depth"])
    if "fleet.workers_alive" in gauges:
        golden["workers_alive"] = float(gauges["fleet.workers_alive"])

    declared = snapshot.get("golden")
    if isinstance(declared, Mapping):
        golden.update({name: float(value) for name, value in declared.items()})
    return golden


def evaluate_golden(
    snapshot: Mapping[str, object],
    thresholds: GoldenThresholds | None = None,
) -> list[Violation]:
    """Gate the golden metrics in ``snapshot``; one violation per breach.

    ``snapshot`` may be a registry snapshot, a ``/metrics`` payload, or
    an already-derived :func:`golden_metrics` dict.  An empty list means
    every *reported* golden metric is within its threshold.
    """
    thresholds = thresholds or GoldenThresholds()
    if any(
        key in snapshot
        for key in ("counters", "gauges", "histograms", "metrics", "golden")
    ):
        golden = golden_metrics(snapshot)
    else:
        golden = {name: float(value) for name, value in snapshot.items()}

    violations: list[Violation] = []

    def gate_floor(metric: str, threshold: float | None) -> None:
        if threshold is not None and metric in golden and golden[metric] < threshold:
            violations.append(Violation(metric, golden[metric], threshold, ">="))

    def gate_ceiling(metric: str, threshold: float | None) -> None:
        if threshold is not None and metric in golden and golden[metric] > threshold:
            violations.append(Violation(metric, golden[metric], threshold, "<="))

    gate_floor("cache_hit_rate", thresholds.min_cache_hit_rate)
    gate_ceiling("plan_p50_seconds", thresholds.max_plan_p50_seconds)
    gate_ceiling("plan_p99_seconds", thresholds.max_plan_p99_seconds)
    gate_ceiling("queue_depth", thresholds.max_queue_depth)
    gate_floor("workers_alive", thresholds.min_workers_alive)
    return violations
