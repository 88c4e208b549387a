"""Execute-what-you-planned: measured top-k calibration of the simulator.

The planner ranks alternatives by *simulated* measures; this benchmark
closes the loop (see ``docs/execution.md``).  It plans the dirty-source
TPC-H calibration workload with the data-quality/reliability palette,
executes the top-k skyline alternatives on sampled data with the
pure-Python ``local`` execution backend, and scores the simulator with
Spearman rank correlation between the simulated
``process_cycle_time_ms`` ranking and the measured wall-time ranking.

Two claims are asserted by the ``slow``-marked pytest entry:

* rank agreement: Spearman >= 0.6 over the executed top-k (the
  simulator orders real executions mostly like reality does), and
* plan identity: executing alternatives never mutates the planning
  result -- the plans stay byte-identical to the non-executing path
  (checked via :meth:`~repro.core.planner.PlanningResult.fingerprint`).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_execution.py

or through pytest (``pytest benchmarks/bench_execution.py -s``).  The
test suite smoke-runs :func:`run_execution_bench` at tiny scale via
``benchmarks/run_all.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.core.planner import Planner  # noqa: E402
from repro.exec import execute_top_k  # noqa: E402
from repro.workloads import calibration_configuration, calibration_flow  # noqa: E402

#: The agreement floor asserted on the full-scale run.
SPEARMAN_FLOOR = 0.6


def run_execution_bench(
    *,
    scale: float = 0.05,
    defect_boost: float = 8.0,
    pattern_budget: int = 2,
    config_seed: int = 11,
    data_seed: int = 7,
    k: int = 6,
    repeats: int = 3,
) -> dict:
    """Plan, execute the top-k skyline designs, and score the ranking."""
    flow = calibration_flow(scale=scale, defect_boost=defect_boost)
    planner = Planner(
        configuration=calibration_configuration(
            pattern_budget=pattern_budget, seed=config_seed
        )
    )

    planning_started = time.perf_counter()
    result = planner.plan(flow)
    planning_seconds = time.perf_counter() - planning_started
    fingerprint_before = result.fingerprint()

    execution_started = time.perf_counter()
    calibration = execute_top_k(
        result,
        k=k,
        repeats=repeats,
        data_seed=data_seed,
        pool="skyline",
    )
    execution_seconds = time.perf_counter() - execution_started

    return {
        "workload": flow.name,
        "flow_operations": flow.node_count,
        "flow_transitions": flow.edge_count,
        "scale": scale,
        "defect_boost": defect_boost,
        "pattern_budget": pattern_budget,
        "config_seed": config_seed,
        "alternatives": len(result.alternatives),
        "skyline_size": len(result.skyline_indices),
        "planning_seconds": planning_seconds,
        "execution_seconds": execution_seconds,
        "spearman": calibration.spearman,
        "identical_plans": result.fingerprint() == fingerprint_before,
        "calibration": calibration.to_dict(),
    }


def _render_report(report: dict) -> str:
    calibration = report["calibration"]
    lines = [
        f"workload: {report['workload']}  ({report['flow_operations']} operations, "
        f"defect_boost={report['defect_boost']}, budget={report['pattern_budget']})",
        f"planned {report['alternatives']} alternatives "
        f"({report['skyline_size']} on the skyline) in "
        f"{report['planning_seconds']:.2f} s; executed top-{len(calibration['runs'])} "
        f"x{calibration['repeats']} on backend {calibration['backend']!r} in "
        f"{report['execution_seconds']:.2f} s",
        f"{'alternative':<16} {'simulated':>12} {'measured':>12} "
        f"{'rows loaded':>12} {'recovered':>10}",
    ]
    for run in calibration["runs"]:
        lines.append(
            f"{run['label']:<16} {run['simulated']:>10.1f} ms {run['measured_ms']:>10.1f} ms "
            f"{run['rows_loaded']:>12} {run['recovered_nodes']:>10}"
        )
    lines.append(
        f"simulated ranking: {' > '.join(calibration['simulated_ranking'])}"
    )
    lines.append(
        f"measured ranking:  {' > '.join(calibration['measured_ranking'])}"
    )
    lines.append(
        f"spearman: {report['spearman']:.3f} (floor {SPEARMAN_FLOOR})   "
        f"identical plans: {report['identical_plans']}"
    )
    return "\n".join(lines)


@pytest.mark.slow
def test_execution_rank_correlation():
    """The simulator's top-k ranking must track measured wall time."""
    report = run_execution_bench()
    print()
    print("=" * 78)
    print("ARTIFACT: simulated vs measured top-k ranking (dirty-source TPC-H)")
    print("=" * 78)
    print(_render_report(report))
    assert report["identical_plans"], "executing the top-k mutated the planning result"
    assert report["spearman"] >= SPEARMAN_FLOOR, (
        f"simulated/measured rank agreement too low: spearman "
        f"{report['spearman']:.3f} < {SPEARMAN_FLOOR} "
        f"(simulated {report['calibration']['simulated_ranking']}, "
        f"measured {report['calibration']['measured_ranking']})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--defect-boost", type=float, default=8.0)
    parser.add_argument("--pattern-budget", type=int, default=2)
    parser.add_argument("--config-seed", type=int, default=11)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="emit the raw report as JSON")
    args = parser.parse_args(argv)
    report = run_execution_bench(
        scale=args.scale,
        defect_boost=args.defect_boost,
        pattern_budget=args.pattern_budget,
        config_seed=args.config_seed,
        data_seed=args.data_seed,
        k=args.k,
        repeats=args.repeats,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
