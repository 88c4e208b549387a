"""Smoke-runs of the benchmark harnesses on tiny flows.

Keeps ``benchmarks/bench_streaming_pipeline.py``,
``benchmarks/bench_generation.py`` and ``benchmarks/run_all.py``
importable and their harnesses runnable from the test suite (one run,
smallest budgets), without asserting on wall-clock -- timing claims are
only meaningful at benchmark scale.
"""

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

_BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
_BENCH_PATH = _BENCH_DIR / "bench_streaming_pipeline.py"


def _load_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench():
    return _load_module(_BENCH_PATH)


def test_bench_smoke_tiny_flow():
    bench = _load_bench()
    report = bench.run_comparison(
        scale=0.01,
        iterations=1,
        replans=1,
        simulation_runs=1,
        max_alternatives=10,
        screening_beam=3,
    )
    assert set(report["arms"]) == {"eager", "streaming", "screening"}
    for arm in report["arms"].values():
        assert arm["seconds"] > 0
        assert arm["evaluations"] > 0
    assert report["equivalent_selections"]
    # the re-plan is served from the cache in the streaming arm
    assert report["arms"]["streaming"]["cache"]["hits"] > 0
    assert 0.0 <= report["arms"]["streaming"]["cache"]["hit_rate"] <= 1.0
    # the report renders without blowing up
    assert "streaming vs eager" in bench._render_report(report)


def test_generation_bench_smoke_tiny_flow():
    bench = _load_module(_BENCH_DIR / "bench_generation.py")
    report = bench.run_generation_bench(
        scale=0.01,
        pattern_budget=2,
        max_points_per_pattern=2,
        max_alternatives=30,
        repeats=1,
    )
    assert report["identical_alternatives"]
    assert report["seconds"] > 0
    assert report["alternatives"] > 0
    assert report["candidates_per_second"] > 0
    assert 0 < report["patterns_applied"] <= 2 * report["combinations_tried"]
    assert report["prefix_steps_reused"] > 0
    rendered = bench._render_report(report)
    assert "prefix cache" in rendered


def test_profile_cache_bench_smoke_tiny_flow():
    bench = _load_module(_BENCH_DIR / "bench_profile_cache.py")
    report = bench.run_cache_bench(
        scale=0.01,
        pattern_budget=1,
        max_points_per_pattern=2,
        simulation_runs=1,
        max_alternatives=15,
    )
    assert set(report["arms"]) == {"cold", "warm_memory", "warm_disk"}
    assert report["identical_results"]
    for arm in report["arms"].values():
        assert arm["seconds"] > 0
    assert report["disk_entries"] > 0
    assert report["disk_bytes"] > 0
    # the warm-disk arm is served entirely from the persistent store
    warm_disk = report["arms"]["warm_disk"]["cache"]
    assert warm_disk["disk"]["hit_rate"] == 1.0
    assert warm_disk["overall"]["misses"] == 0
    rendered = bench._render_report(report)
    assert "warm disk vs cold" in rendered


def test_service_bench_smoke_tiny_flow():
    bench = _load_module(_BENCH_DIR / "bench_service.py")
    report = bench.run_service_bench(
        scale=0.01,
        pattern_budget=1,
        max_points_per_pattern=2,
        simulation_runs=1,
        max_alternatives=15,
        clients=2,
    )
    assert report["clients"] == 2
    assert report["identical_results"]
    assert report["solo_seconds_wall"] > 0
    assert report["service_seconds_wall"] > 0
    assert len(report["solo_seconds"]) == 2
    assert report["server_entries"] > 0
    # the fleet clients were served by the warm shared server, as
    # observed through the server's own /metrics endpoint
    assert report["fleet_hit_rate"] == 1.0
    assert report["request_seconds"]["count"] > 0
    assert report["request_seconds"]["p99"] >= report["request_seconds"]["p50"]
    assert report["server_golden"]["cache_hit_rate"] > 0
    rendered = bench._render_report(report)
    assert "service vs solo" in rendered
    assert "from /metrics" in rendered


def test_wire_bench_smoke_tiny_flow():
    bench = _load_module(_BENCH_DIR / "bench_wire.py")
    report = bench.run_wire_bench(
        scale=0.01,
        pattern_budget=1,
        max_points_per_pattern=2,
        simulation_runs=1,
        max_alternatives=15,
        repeats=1,
        connect_latency=0.005,
    )
    assert report["identical_results"]
    assert report["per_request_seconds"] > 0
    assert report["pooled_seconds"] > 0
    # the per-request arm pays one TCP connection per request; the
    # pooled arm reuses one keep-alive connection for the campaign
    per_request, pooled = report["per_request_wire"], report["pooled_wire"]
    assert per_request["connections_opened"] == per_request["requests"]
    assert pooled["connections_opened"] == 1
    assert pooled["reconnects"] == 0
    assert report["warm_hit_rate"] == 1.0
    # the cold campaign's end-of-stream /put is the big compressed body
    assert report["cold_publish_wire"]["compressed_requests"] >= 1
    rendered = bench._render_report(report)
    assert "pooled vs per-request" in rendered


def test_fleet_bench_smoke_tiny_flow():
    bench = _load_module(_BENCH_DIR / "bench_fleet.py")
    report = bench.run_fleet_bench(
        scale=0.01,
        pattern_budget=1,
        max_points_per_pattern=2,
        simulation_runs=1,
        max_alternatives=15,
        shard_counts=(1, 2),
        client_counts=(1, 2),
    )
    assert report["identical_results"]
    assert report["shard_counts"] == [1, 2]
    assert report["client_counts"] == [1, 2]
    # one cell per (shards, clients) pair, each timed and fully warm
    assert len(report["grid"]) == 4
    for cell in report["grid"]:
        assert cell["wall_seconds"] > 0
        assert len(cell["client_seconds"]) == cell["clients"]
        # warm, as the shards themselves observed through /metrics
        assert cell["fleet_hit_rate"] == 1.0
    # every shard channel actually carried traffic
    for counts in report["shard_bytes"].values():
        assert all(count > 0 for count in counts)
    # every shard reports served-request latency on /metrics
    for stats in report["shard_request_seconds"].values():
        for shard in stats:
            assert shard["count"] > 0
            assert shard["p99"] >= shard["p50"] >= 0
    assert report["speedup_sharded_vs_single"] > 0
    rendered = bench._render_report(report)
    assert "sharded vs single" in rendered


def test_execution_bench_smoke_tiny_flow():
    bench = _load_module(_BENCH_DIR / "bench_execution.py")
    report = bench.run_execution_bench(scale=0.02, k=3, repeats=1)
    assert report["identical_plans"], "executing the top-k mutated the plans"
    assert report["alternatives"] > 0
    assert report["skyline_size"] > 0
    calibration = report["calibration"]
    assert calibration["backend"] == "local"
    assert calibration["pool"] == "skyline"
    assert len(calibration["runs"]) == 3
    for run in calibration["runs"]:
        assert run["measured_ms"] > 0
        assert run["rows_loaded"] > 0
    # spearman is only asserted at benchmark scale; tiny runs just need
    # a defined value in range
    assert -1.0 <= report["spearman"] <= 1.0
    rendered = bench._render_report(report)
    assert "spearman" in rendered
    assert "measured ranking" in rendered


def test_obs_bench_smoke_tiny_flow():
    bench = _load_module(_BENCH_DIR / "bench_obs.py")
    report = bench.run_obs_bench(
        scale=0.01,
        pattern_budget=1,
        max_points_per_pattern=2,
        simulation_runs=1,
        max_alternatives=15,
        repeats=1,
    )
    # enabling metrics must never change what gets planned
    assert report["identical_results"]
    assert report["off_best_seconds"] > 0
    assert report["on_best_seconds"] > 0
    # the instrumented arm really recorded: one span per plan (1 cold +
    # 1 timed), plus histograms/counters from the evaluator and cache
    assert report["plan_spans_recorded"] == report["plans_per_arm"] == 2
    assert report["metric_points"]["histograms"] > 0
    assert report["metric_points"]["counters"] > 0
    # the overhead gate itself is only meaningful at benchmark scale;
    # tiny runs just need a defined number
    assert isinstance(report["overhead_fraction"], float)
    rendered = bench._render_report(report)
    assert "instrumentation overhead" in rendered


def test_run_all_smoke_writes_machine_readable_record(tmp_path):
    run_all = _load_module(_BENCH_DIR / "run_all.py")
    output = tmp_path / "BENCH_generation.json"
    assert run_all.main(["--tiny", "--output", str(output)]) == 0
    record = json.loads(output.read_text())
    assert record["tiny"] is True
    assert record["peak_rss_kb"] > 0
    generation = record["generation"]
    assert generation["identical_alternatives"]
    assert generation["candidates_per_second"] > 0
    assert generation["patterns_applied"] > 0
    streaming = record["streaming"]
    assert streaming["equivalent_selections"]
    assert streaming["speedup_streaming_vs_eager"] > 0
    profile_cache = record["profile_cache"]
    assert profile_cache["identical_results"]
    assert profile_cache["speedup_warm_disk_vs_cold"] > 0
    assert profile_cache["disk_entries"] > 0
    service = record["service"]
    assert service["identical_results"]
    assert service["speedup_service_vs_solo"] > 0
    assert service["server_entries"] > 0
    assert service["clients"] == 2
    assert service["fleet_hit_rate"] == 1.0
    assert service["request_seconds"]["count"] > 0
    wire = record["wire"]
    assert wire["identical_results"]
    assert wire["speedup_pooled_vs_per_request"] > 0
    assert wire["pooled_wire"]["connections_opened"] == 1
    assert wire["per_request_wire"]["connections_opened"] > 1
    assert wire["warm_hit_rate"] == 1.0
    fleet = record["fleet"]
    assert fleet["identical_results"]
    assert fleet["shard_counts"] == [1, 2]
    assert fleet["busiest_clients"] == 2
    assert fleet["speedup_sharded_vs_single"] > 0
    assert len(fleet["raw"]["grid"]) == 4
    execution = record["execution"]
    assert execution["identical_plans"]
    assert execution["backend"] == "local"
    assert execution["executed"] == 3
    assert -1.0 <= execution["spearman"] <= 1.0
    assert execution["raw"]["calibration"]["runs"]
    observability = record["observability"]
    assert observability["identical_results"]
    assert observability["plan_spans_recorded"] == 2
    assert observability["metric_points"]["histograms"] > 0
    assert observability["off_best_seconds"] > 0
    assert observability["on_best_seconds"] > 0
