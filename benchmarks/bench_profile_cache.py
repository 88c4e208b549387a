"""Persistent profile cache: cold vs. warm-disk vs. in-memory planning.

The planner memoizes quality profiles by flow fingerprint; PR 4 made the
memo *persistent*: a disk-backed cache tier under ``cache_dir`` lets
repeated benchmark runs, re-plans in new processes, and parallel
sessions share profiles instead of re-simulating identical flows.  This
benchmark measures that amortization on the TPC-H refresh workload with
three arms over the identical planning run:

* **cold** -- a fresh planner with memory over disk on an empty
  ``cache_dir``: pays full simulation plus the disk write-back.  This is
  also (within noise) the uncached/first-run cost.
* **warm_memory** -- the same planner plans again: every profile is
  served from the in-memory tier (the PR 1 behaviour, upper bound).
* **warm_disk** -- a *new* planner (fresh memory tier, simulating a new
  process) on the now-populated ``cache_dir``: every profile is
  deserialized from disk.  This is the number a repeated benchmark run
  or a parallel session actually sees.

The report asserts that all arms -- and a default memory-tier planner --
produce byte-identical alternatives, profiles and skylines: cache tiers
trade wall-clock, never results.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_profile_cache.py

or through pytest (``pytest benchmarks/bench_profile_cache.py -s``).
The test suite smoke-runs :func:`run_cache_bench` on a tiny flow.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.core import Planner, ProcessingConfiguration  # noqa: E402
from repro.workloads import tpch_refresh_flow  # noqa: E402


_COUNTER_KEYS = ("hits", "misses", "evictions", "invalid")


def _stats_delta(before: dict, after: dict) -> dict:
    """Per-arm view of cumulative tier stats: ``after`` minus ``before``.

    The warm-memory arm reuses the cold arm's planner, so its raw
    counters are cumulative; subtracting the pre-arm snapshot makes the
    three arms' cache columns directly comparable.
    """
    delta = {}
    for tier, snapshot in after.items():
        previous = before.get(tier, {})
        counters = {k: snapshot[k] - previous.get(k, 0) for k in _COUNTER_KEYS}
        counters["lookups"] = counters["hits"] + counters["misses"]
        counters["hit_rate"] = (
            counters["hits"] / counters["lookups"] if counters["lookups"] else 0.0
        )
        delta[tier] = counters
    return delta


def run_cache_bench(
    flow=None,
    *,
    scale: float = 0.05,
    pattern_budget: int = 2,
    max_points_per_pattern: int = 2,
    simulation_runs: int = 5,
    max_alternatives: int = 80,
    cache_dir: str | None = None,
) -> dict:
    """Time the three arms on one workload and return a comparison report.

    ``cache_dir`` defaults to a throwaway temporary directory (removed
    afterwards); pass an explicit one to inspect the entries or to
    measure against a pre-warmed store.
    """
    if flow is None:
        flow = tpch_refresh_flow(scale=scale)
    base = dict(
        pattern_budget=pattern_budget,
        max_points_per_pattern=max_points_per_pattern,
        simulation_runs=simulation_runs,
        max_alternatives=max_alternatives,
    )
    owns_dir = cache_dir is None
    cache_dir = cache_dir or tempfile.mkdtemp(prefix="repro-profile-cache-")

    try:
        tiered = ProcessingConfiguration(**base, cache_dir=cache_dir)
        arms: dict[str, dict] = {}

        # Reference: the default in-process memory tier, cold.
        reference = Planner(configuration=ProcessingConfiguration(**base)).plan(flow)

        cold_planner = Planner(configuration=tiered)
        t0 = time.perf_counter()
        cold_result = cold_planner.plan(flow)
        arms["cold"] = {
            "seconds": time.perf_counter() - t0,
            "cache": cold_planner.profile_cache.tier_stats(),
        }

        after_cold = cold_planner.profile_cache.tier_stats()
        t0 = time.perf_counter()
        warm_memory_result = cold_planner.plan(flow)
        arms["warm_memory"] = {
            "seconds": time.perf_counter() - t0,
            "cache": _stats_delta(after_cold, cold_planner.profile_cache.tier_stats()),
        }

        warm_planner = Planner(configuration=tiered)  # fresh memory, warm disk
        t0 = time.perf_counter()
        warm_disk_result = warm_planner.plan(flow)
        disk = warm_planner.profile_cache.disk
        arms["warm_disk"] = {
            "seconds": time.perf_counter() - t0,
            "cache": warm_planner.profile_cache.tier_stats(),
        }

        fingerprints = {
            name: result.fingerprint()
            for name, result in {
                "memory_reference": reference,
                "cold": cold_result,
                "warm_memory": warm_memory_result,
                "warm_disk": warm_disk_result,
            }.items()
        }
        identical = len(set(fingerprints.values())) == 1

        return {
            "workload": flow.name,
            "pattern_budget": pattern_budget,
            "max_points_per_pattern": max_points_per_pattern,
            "simulation_runs": simulation_runs,
            "alternatives": len(cold_result.alternatives),
            "arms": arms,
            "disk_entries": len(disk),
            "disk_bytes": disk.size_bytes(),
            "speedup_warm_disk_vs_cold": arms["cold"]["seconds"] / arms["warm_disk"]["seconds"],
            "speedup_warm_memory_vs_cold": arms["cold"]["seconds"]
            / arms["warm_memory"]["seconds"],
            "identical_results": identical,
        }
    finally:
        if owns_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _render_report(report: dict) -> str:
    lines = [
        f"workload: {report['workload']}  "
        f"({report['alternatives']} alternatives, budget {report['pattern_budget']}, "
        f"{report['simulation_runs']} simulation runs)",
        f"{'arm':<14} {'wall clock':>12} {'hit rate':>10} {'served by disk':>16}",
    ]
    for name, arm in report["arms"].items():
        overall = arm["cache"].get("overall", {})
        disk_stats = arm["cache"].get("disk", {})
        rate = f"{overall.get('hit_rate', 0.0) * 100.0:.1f}%"
        disk_hits = f"{disk_stats.get('hits', 0)}"
        lines.append(f"{name:<14} {arm['seconds']:>10.3f} s {rate:>10} {disk_hits:>16}")
    lines.append(
        f"warm disk vs cold: {report['speedup_warm_disk_vs_cold']:.2f}x   "
        f"warm memory vs cold: {report['speedup_warm_memory_vs_cold']:.2f}x   "
        f"identical results: {report['identical_results']}"
    )
    lines.append(
        f"persisted: {report['disk_entries']} entries, {report['disk_bytes'] / 1024:.1f} kB"
    )
    return "\n".join(lines)


def test_warm_disk_rerun_beats_cold():
    """A warm cache_dir must make a re-run >= 1.5x faster, results identical."""
    report = run_cache_bench()
    print()
    print("=" * 78)
    print("ARTIFACT: persistent profile cache, cold vs warm arms (TPC-H)")
    print("=" * 78)
    print(_render_report(report))
    assert report["identical_results"], "a cache tier changed the planning results"
    assert report["speedup_warm_disk_vs_cold"] >= 1.5, (
        f"warm-disk speedup {report['speedup_warm_disk_vs_cold']:.2f}x below the 1.5x bar"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--pattern-budget", type=int, default=2)
    parser.add_argument("--simulation-runs", type=int, default=5)
    parser.add_argument("--max-alternatives", type=int, default=80)
    parser.add_argument("--cache-dir", default=None, help="persist entries here (kept)")
    parser.add_argument("--json", action="store_true", help="emit the raw report as JSON")
    args = parser.parse_args(argv)
    report = run_cache_bench(
        scale=args.scale,
        pattern_budget=args.pattern_budget,
        simulation_runs=args.simulation_runs,
        max_alternatives=args.max_alternatives,
        cache_dir=args.cache_dir,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
