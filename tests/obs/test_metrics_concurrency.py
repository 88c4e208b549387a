"""Registry behaviour under concurrency: exact counts, untorn snapshots.

The registry's contract is one lock per registry: writers from any
number of threads lose no increments, and a concurrent reader never
observes a *torn* snapshot -- a histogram whose ``count`` disagrees
with its bucket sum, or a counter that went backwards.  These tests
hammer the registry directly from raw threads and indirectly through
concurrent planners sharing one registry (the redesign server's worker
threads).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core import Planner
from repro.obs.metrics import MetricsRegistry

from tests.conftest import fast_planner_config


def test_thread_hammer_loses_no_increments():
    registry = MetricsRegistry()
    threads, per_thread = 8, 2000

    def hammer() -> None:
        counter = registry.counter("hits")
        histogram = registry.histogram("lat")
        for i in range(per_thread):
            counter.inc()
            histogram.observe(0.0001 * (i % 50))

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    assert registry.counter("hits").value == threads * per_thread
    data = registry.histogram("lat").as_dict()
    assert data["count"] == threads * per_thread
    assert data["count"] == sum(count for _, count in data["buckets"])


def test_concurrent_snapshots_are_monotone_and_never_torn():
    registry = MetricsRegistry()
    stop = threading.Event()
    problems: list[str] = []

    def write() -> None:
        counter = registry.counter("hits")
        histogram = registry.histogram("lat")
        while not stop.is_set():
            counter.inc()
            histogram.observe(0.003)

    def read() -> None:
        last_count = 0
        while not stop.is_set():
            snapshot = registry.snapshot()
            counters = snapshot["counters"]
            histograms = snapshot["histograms"]
            if "hits" not in counters:
                continue
            if counters["hits"] < last_count:
                problems.append(
                    f"counter went backwards: {counters['hits']} < {last_count}"
                )
            last_count = counters["hits"]
            data = histograms["lat"]
            bucket_sum = sum(count for _, count in data["buckets"])
            if data["count"] != bucket_sum:
                problems.append(
                    f"torn histogram: count {data['count']} != bucket sum {bucket_sum}"
                )

    writers = [threading.Thread(target=write) for _ in range(4)]
    readers = [threading.Thread(target=read) for _ in range(2)]
    for thread in writers + readers:
        thread.start()
    timer = threading.Timer(0.5, stop.set)
    timer.start()
    for thread in writers + readers:
        thread.join()
    timer.cancel()
    assert problems == []


def test_thread_pool_evaluator_hammers_one_registry(linear_flow):
    """Metrics-enabled planners on a thread pool record consistently."""
    registry = MetricsRegistry()
    configuration = fast_planner_config(metrics_registry=registry, eval_batch_size=4)
    plans = 4
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(
            pool.map(
                lambda _: Planner(configuration=configuration).plan(linear_flow),
                range(plans),
            )
        )

    snapshot = registry.snapshot()
    histograms = snapshot["histograms"]
    # one campaign span per plan, with every phase inside it
    assert histograms["planner.plan_seconds"]["count"] == plans
    for phase in ("generate", "estimate", "rank"):
        assert histograms[f"planner.phase.{phase}_seconds"]["count"] == plans, phase
    # one estimation span per evaluated profile
    estimates = histograms["evaluator.estimate_seconds"]
    assert estimates["count"] > 0
    # untorn after the concurrent campaigns: counts match bucket sums
    for name, data in histograms.items():
        assert data["count"] == sum(count for _, count in data["buckets"]), name
    counters = snapshot["counters"]
    assert counters["planner.plans"] == plans
    assert counters["planner.alternatives_evaluated"] == sum(
        len(result.alternatives) + result.discarded_by_constraints for result in results
    )


def test_estimate_spans_count_each_simulated_alternative_once(linear_flow):
    """One ``evaluator.estimate_seconds`` span per profile the plan computed."""
    registry = MetricsRegistry()
    planner = Planner(configuration=fast_planner_config(metrics_registry=registry))
    planner.plan(linear_flow)
    estimates = registry.snapshot()["histograms"]["evaluator.estimate_seconds"]
    # the baseline profile is estimated outside the evaluator
    assert estimates["count"] == planner.profile_cache.stats.misses - 1


def test_plans_identical_with_and_without_metrics(linear_flow):
    """Observability must never change what gets planned."""
    plain = Planner(configuration=fast_planner_config())
    observed = Planner(configuration=fast_planner_config(metrics_registry=MetricsRegistry()))
    assert plain.plan(linear_flow).fingerprint() == observed.plan(linear_flow).fingerprint()
