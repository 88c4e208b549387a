"""Dependency-free metrics core: counters, gauges, histograms, spans.

The fleet grew faster than its instrumentation: benchmarks reach into
in-process stats objects, and a running cache shard or redesign
front-end exposes nothing beyond ``/health`` and a best-effort
``/stats``.  This module is the measurement substrate the rest of the
observability layer builds on -- a :class:`MetricsRegistry` holding
thread-safe :class:`Counter`, :class:`Gauge` and fixed-bucket
:class:`Histogram` instruments, with consistent snapshots, cross-process
merging and a :class:`Timer` context-manager span API.

Contract
--------
* One ``threading.RLock`` per registry guards every instrument it owns.
  ``snapshot()`` acquires it once, so a reader never observes a *torn*
  snapshot (a histogram whose ``count`` disagrees with its bucket sum,
  or a counter that went backwards).
* Histograms use fixed upper bounds (seconds-scale latency buckets by
  default) and estimate p50/p95/p99 by linear interpolation inside the
  bucket containing the target rank, clamped to the observed min/max.
  The estimate is therefore never off by more than the width of one
  bucket.
* ``merge()`` adds counters and histogram buckets and overwrites
  gauges; it accepts either another registry or a ``snapshot()`` dict
  (which is how process-pool workers and remote scrapes fold in).
* Registries pickle as *handles*, never as data: unpickling the
  process-wide default registry (see :func:`default_registry`) resolves
  to the receiving process's own default, and any other registry
  unpickles empty.  A process-pool worker therefore accumulates into a
  local registry and the parent folds the drained deltas back in --
  counts are never duplicated across the fork/spawn boundary.

A planner records into its configuration's ``metrics_registry``
(``None``, the default, switches metrics off), and every
instrumentation site is a cheap ``if registry is not None`` guard, so
the metrics-off path stays free.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterable, Mapping

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
]

#: Upper bucket bounds (seconds) used by latency histograms unless the
#: call site provides its own.  Log-spaced from 100 microseconds to half
#: a minute; everything above lands in the implicit overflow bucket.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """Monotone counter; only ever increments."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value; set, inc or dec freely."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimation.

    ``bounds`` are inclusive upper bounds per bucket; one overflow
    bucket catches everything above the last bound.  Quantiles are
    estimated by walking the cumulative counts to the target rank and
    interpolating linearly within the bucket, clamped to the observed
    min/max -- accurate to within one bucket width by construction.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, lock: threading.RLock, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        ordered = tuple(sorted(float(bound) for bound in bounds))
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        self._lock = lock
        self.bounds = ordered
        self._counts = [0] * (len(ordered) + 1)  # +1: overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: int | float) -> None:
        value = float(value)
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of everything observed so far."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        target = q * self._count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                cumulative += bucket_count
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[i - 1] if i > 0 else min(self._min, self.bounds[0])
                upper = self.bounds[i] if i < len(self.bounds) else self._max
                fraction = (target - cumulative) / bucket_count
                estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
                return max(self._min, min(self._max, estimate))
            cumulative += bucket_count
        return self._max  # pragma: no cover - unreachable with count > 0

    def percentiles(self) -> dict[str, float]:
        with self._lock:
            return {
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            summary: dict[str, object] = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "buckets": [
                    [bound, count]
                    for bound, count in zip(list(self.bounds) + ["+Inf"], self._counts)
                ],
            }
            return summary


class Timer:
    """Context-manager span that observes its elapsed seconds.

    ``with registry.timer("planner.phase.generate_seconds"):`` is the
    span API every phase timing in the codebase uses.  The elapsed time
    is also kept on :attr:`elapsed` for call sites that want the number
    without a second clock read.
    """

    __slots__ = ("_histogram", "_start", "elapsed")

    def __init__(self, histogram: Histogram | None) -> None:
        self._histogram = histogram
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self._histogram is not None:
            self._histogram.observe(self.elapsed)


def maybe_timer(registry: "MetricsRegistry | None", name: str) -> Timer:
    """A :class:`Timer` on ``registry``, or a recording-free one.

    Lets instrumented call sites keep a single ``with`` block whether or
    not metrics are enabled -- the null timer still measures
    :attr:`Timer.elapsed` but observes nothing.
    """
    if registry is None:
        return Timer(None)
    return registry.timer(name)


class MetricsRegistry:
    """Thread-safe home for named counters, gauges and histograms.

    Instruments are created on first use (``registry.counter(name)``)
    and shared on every later request for the same name.  Names are
    dotted lowercase paths (``cache.memory.hits``); the Prometheus
    exposition sanitises them on the way out.
    """

    def __init__(self, _default: bool = False) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._is_default = _default

    # -- instrument accessors ------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(self._lock)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(self._lock)
            return instrument

    def histogram(self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(self._lock, bounds)
            return instrument

    def timer(self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BOUNDS) -> Timer:
        return Timer(self.histogram(name, bounds))

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, object]]:
        """One consistent view of every instrument (never torn)."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in sorted(self._counters.items())},
                "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
                "histograms": {
                    name: h.as_dict() for name, h in sorted(self._histograms.items())
                },
            }

    def as_dict(self) -> dict[str, dict[str, object]]:
        """Alias of :meth:`snapshot` -- the repo-wide stats contract."""
        return self.snapshot()

    def merge(self, other: "MetricsRegistry | Mapping[str, object]") -> None:
        """Fold another registry (or a ``snapshot()`` dict) into this one.

        Counters and histogram buckets add; gauges take the incoming
        value.  Histograms must agree on bucket bounds.
        """
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        counters = other.get("counters", {})
        gauges = other.get("gauges", {})
        histograms = other.get("histograms", {})
        with self._lock:
            for name, value in counters.items():
                self.counter(name).inc(value)
            for name, value in gauges.items():
                self.gauge(name).set(value)
            for name, data in histograms.items():
                buckets = data.get("buckets", [])
                bounds = [b for b, _ in buckets if b != "+Inf"]
                histogram = self.histogram(name, bounds or DEFAULT_LATENCY_BOUNDS)
                incoming = [count for _, count in buckets]
                if len(incoming) != len(histogram._counts):
                    raise ValueError(
                        f"histogram {name!r}: bucket bounds do not match for merge"
                    )
                for index, count in enumerate(incoming):
                    histogram._counts[index] += count
                histogram._count += data.get("count", 0)
                histogram._sum += data.get("sum", 0.0)
                if data.get("count"):
                    histogram._min = min(histogram._min, data.get("min", math.inf))
                    histogram._max = max(histogram._max, data.get("max", -math.inf))

    def drain(self) -> dict[str, dict[str, object]]:
        """Snapshot then reset -- how pool workers flush their deltas."""
        with self._lock:
            snapshot = self.snapshot()
            self.reset()
            return snapshot

    def reset(self) -> None:
        """Drop every instrument (tests and drained worker registries)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- pickling: registries travel as handles, never as data ----------

    def __reduce__(self):
        if self._is_default:
            return (default_registry, ())
        return (MetricsRegistry, ())


_DEFAULT_REGISTRY: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry (created on first use)."""
    global _DEFAULT_REGISTRY
    with _DEFAULT_LOCK:
        if _DEFAULT_REGISTRY is None:
            _DEFAULT_REGISTRY = MetricsRegistry(_default=True)
        return _DEFAULT_REGISTRY


def _prom_name(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def render_prometheus(snapshot: Mapping[str, object], prefix: str = "repro") -> str:
    """Render a ``snapshot()`` dict in the Prometheus text exposition.

    Counter and gauge names map one-to-one; histograms expand into the
    conventional ``_bucket{le=...}`` cumulative series plus ``_sum`` and
    ``_count``.
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")
    for name, data in snapshot.get("histograms", {}).items():
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in data.get("buckets", []):
            cumulative += count
            label = "+Inf" if bound == "+Inf" else repr(float(bound))
            lines.append(f'{metric}_bucket{{le="{label}"}} {cumulative}')
        lines.append(f"{metric}_sum {data.get('sum', 0.0)}")
        lines.append(f"{metric}_count {data.get('count', 0)}")
    return "\n".join(lines) + "\n"
