"""Run the planning-pipeline benchmarks and persist a machine-readable record.

Executes the generation benchmark (``bench_generation``: forked,
prefix-cached pattern application), the streaming-pipeline benchmark
(``bench_streaming_pipeline``: eager vs. streaming), the
profile-cache benchmark (``bench_profile_cache``: cold vs. warm-disk
vs. in-memory planning), the service benchmark (``bench_service``:
concurrent clients sharing one cache server vs. cold solo runs), the
fleet benchmark (``bench_fleet``: concurrent clients against 1 vs. 4 cache
shards, each shard a shared-capacity channel), the execution
benchmark (``bench_execution``: measured top-k calibration of the
simulator's ranking against real wall time) and the observability
benchmark (``bench_obs``: warm re-planning with metrics on vs. off,
gating the instrumentation overhead) and
writes one JSON document --
``BENCH_generation.json`` by default -- with candidates/sec, the
measured speedups, the application/validation time split and the
process peak RSS.  Future PRs append to the performance
trajectory by re-running this after their changes::

    PYTHONPATH=src python benchmarks/run_all.py
    PYTHONPATH=src python benchmarks/run_all.py --tiny --output /tmp/bench.json

``--tiny`` shrinks every knob for a seconds-long smoke run (used by the
``slow``-marked test in ``tests/integration/test_bench_smoke.py``); the
numbers it produces are *not* meaningful, only the report shape is.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
_SRC = _BENCH_DIR.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))


def _load(name: str):
    """Import a sibling benchmark module by file path (no package needed)."""
    spec = importlib.util.spec_from_file_location(name, _BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_bench_isolated(script: str, arguments: list[str]) -> dict:
    """Run a benchmark script with ``--json`` in a fresh interpreter.

    The service and fleet benchmarks time forked client fleets and
    proxied campaigns, so they must not inherit this process's
    warmed module-level memos and fat heap -- running them in-process
    measurably skews *both* arms.  A subprocess reproduces exactly what
    the standalone invocation measures.
    """
    completed = subprocess.run(
        [sys.executable, str(_BENCH_DIR / script), "--json", *arguments],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - linux container
        peak //= 1024
    return int(peak)


def run_all(tiny: bool = False) -> dict:
    """Run both benchmarks and return the combined report."""
    bench_generation = _load("bench_generation")
    bench_streaming = _load("bench_streaming_pipeline")
    bench_cache = _load("bench_profile_cache")
    bench_execution = _load("bench_execution")
    bench_obs = _load("bench_obs")

    if tiny:
        generation_kwargs = dict(
            scale=0.01, pattern_budget=2, max_points_per_pattern=2,
            max_alternatives=40, repeats=1,
        )
        streaming_kwargs = dict(
            scale=0.01, iterations=1, replans=1, simulation_runs=1,
            max_alternatives=10,
        )
        cache_kwargs = dict(
            scale=0.01, pattern_budget=1, max_points_per_pattern=2,
            simulation_runs=1, max_alternatives=15,
        )
        service_arguments = [
            "--scale", "0.01", "--pattern-budget", "1",
            "--max-points-per-pattern", "2", "--simulation-runs", "1",
            "--max-alternatives", "15", "--clients", "2",
        ]
        fleet_arguments = [
            "--scale", "0.01", "--pattern-budget", "1",
            "--max-points-per-pattern", "2", "--simulation-runs", "1",
            "--max-alternatives", "15", "--shards", "1", "2",
            "--clients", "1", "2",
        ]
        execution_kwargs = dict(scale=0.02, k=3, repeats=1)
        obs_kwargs = dict(
            scale=0.01, pattern_budget=1, max_points_per_pattern=2,
            simulation_runs=1, max_alternatives=15, repeats=1,
        )
    else:
        generation_kwargs = {}
        streaming_kwargs = {}
        cache_kwargs = {}
        service_arguments = []
        fleet_arguments = []
        execution_kwargs = {}
        obs_kwargs = {}

    generation = bench_generation.run_generation_bench(**generation_kwargs)
    streaming = bench_streaming.run_comparison(**streaming_kwargs)
    profile_cache = bench_cache.run_cache_bench(**cache_kwargs)
    service = _run_bench_isolated("bench_service.py", service_arguments)
    fleet = _run_bench_isolated("bench_fleet.py", fleet_arguments)
    execution = bench_execution.run_execution_bench(**execution_kwargs)
    observability = bench_obs.run_obs_bench(**obs_kwargs)

    return {
        "schema_version": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "tiny": tiny,
        "generation": {
            "workload": generation["workload"],
            "pattern_budget": generation["pattern_budget"],
            "max_points_per_pattern": generation["max_points_per_pattern"],
            "alternatives": generation["alternatives"],
            "candidates_per_second": generation["candidates_per_second"],
            "apply_seconds": generation["apply_seconds"],
            "validation_seconds": generation["validation_seconds"],
            "patterns_applied": generation["patterns_applied"],
            "prefix_steps_reused": generation["prefix_steps_reused"],
            "identical_alternatives": generation["identical_alternatives"],
            "gc_collections": generation["gc"]["collections"],
            "gc_seconds": generation["gc"]["seconds"],
            "raw": generation,
        },
        "streaming": {
            "workload": streaming["workload"],
            "speedup_streaming_vs_eager": streaming["speedup_streaming_vs_eager"],
            "equivalent_selections": streaming["equivalent_selections"],
            "raw": streaming,
        },
        "profile_cache": {
            "workload": profile_cache["workload"],
            "speedup_warm_disk_vs_cold": profile_cache["speedup_warm_disk_vs_cold"],
            "speedup_warm_memory_vs_cold": profile_cache["speedup_warm_memory_vs_cold"],
            "identical_results": profile_cache["identical_results"],
            "disk_entries": profile_cache["disk_entries"],
            "disk_bytes": profile_cache["disk_bytes"],
            "raw": profile_cache,
        },
        "service": {
            "workload": service["workload"],
            "clients": service["clients"],
            "speedup_service_vs_solo": service["speedup_service_vs_solo"],
            "identical_results": service["identical_results"],
            "server_entries": service["server_entries"],
            "fleet_hit_rate": service["fleet_hit_rate"],
            "request_seconds": service["request_seconds"],
            "raw": service,
        },
        "fleet": {
            "workload": fleet["workload"],
            "shard_counts": fleet["shard_counts"],
            "client_counts": fleet["client_counts"],
            "busiest_clients": fleet["busiest_clients"],
            "speedup_sharded_vs_single": fleet["speedup_sharded_vs_single"],
            "speedup_single_client": fleet["speedup_single_client"],
            "identical_results": fleet["identical_results"],
            "raw": fleet,
        },
        "execution": {
            "workload": execution["workload"],
            "backend": execution["calibration"]["backend"],
            "alternatives": execution["alternatives"],
            "skyline_size": execution["skyline_size"],
            "executed": len(execution["calibration"]["runs"]),
            "spearman": execution["spearman"],
            "identical_plans": execution["identical_plans"],
            "raw": execution,
        },
        "observability": {
            "workload": observability["workload"],
            "overhead_fraction": observability["overhead_fraction"],
            "off_spread": observability["off_spread"],
            "on_spread": observability["on_spread"],
            "gate_resolved": observability["gate_resolved"],
            "max_overhead_fraction": observability["max_overhead_fraction"],
            "off_best_seconds": observability["off_best_seconds"],
            "on_best_seconds": observability["on_best_seconds"],
            "plan_spans_recorded": observability["plan_spans_recorded"],
            "metric_points": observability["metric_points"],
            "identical_results": observability["identical_results"],
            "raw": observability,
        },
        "peak_rss_kb": _peak_rss_kb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=_BENCH_DIR.parent / "BENCH_generation.json",
        help="where to write the JSON record (default: repo root)",
    )
    parser.add_argument("--tiny", action="store_true", help="seconds-long smoke run")
    args = parser.parse_args(argv)
    report = run_all(tiny=args.tiny)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    generation = report["generation"]
    print(
        f"generation: {generation['candidates_per_second']:.0f} cand/s, "
        f"{generation['patterns_applied']} applications "
        f"({generation['prefix_steps_reused']} prefix steps reused), "
        f"identical={generation['identical_alternatives']}"
    )
    print(
        f"streaming: {report['streaming']['speedup_streaming_vs_eager']:.2f}x vs eager, "
        f"identical={report['streaming']['equivalent_selections']}"
    )
    cache = report["profile_cache"]
    print(
        f"profile cache: warm disk {cache['speedup_warm_disk_vs_cold']:.2f}x vs cold, "
        f"warm memory {cache['speedup_warm_memory_vs_cold']:.2f}x, "
        f"identical={cache['identical_results']}"
    )
    service = report["service"]
    print(
        f"service: {service['clients']} shared-cache clients "
        f"{service['speedup_service_vs_solo']:.2f}x vs cold solo runs, "
        f"identical={service['identical_results']}"
    )
    fleet = report["fleet"]
    print(
        f"fleet: {fleet['busiest_clients']} clients on {max(fleet['shard_counts'])} "
        f"shards {fleet['speedup_sharded_vs_single']:.2f}x vs "
        f"{min(fleet['shard_counts'])} shard(s), "
        f"identical={fleet['identical_results']}"
    )
    execution = report["execution"]
    print(
        f"execution: top-{execution['executed']} of {execution['alternatives']} "
        f"alternatives measured on {execution['backend']!r}, "
        f"spearman {execution['spearman']:.3f}, "
        f"identical_plans={execution['identical_plans']}"
    )
    observability = report["observability"]
    print(
        f"observability: {observability['overhead_fraction'] * 100.0:+.2f}% overhead "
        f"metrics-on vs off (gate <= "
        f"{observability['max_overhead_fraction'] * 100.0:.0f}%, "
        f"resolved={observability['gate_resolved']}), "
        f"{observability['plan_spans_recorded']} plan spans recorded, "
        f"identical={observability['identical_results']}"
    )
    print(f"peak RSS: {report['peak_rss_kb']} kB")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
