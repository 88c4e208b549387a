"""Streaming planning pipeline vs. the eager seed pipeline.

The paper offloads the evaluation of the factorial alternative space to
elastic EC2 infrastructure so that the interactive redesign session stays
responsive.  This benchmark measures the reproduction's local substitute
for that responsiveness on the TPC-H refresh workload: an interactive
session of ``iterations`` redesign cycles where the user re-plans
``replans`` extra time(s) per cycle (e.g. after tightening a constraint)
before adopting an alternative.

Two arms run the identical session:

* **eager** -- the seed behaviour: materialize the full alternative list
  and evaluate it as one barrier batch with a cacheless estimator.  Every
  re-plan re-simulates every flow.
* **streaming** -- the lazy generator feeds the evaluator one window at a
  time (one batched cache lookup each) and the shared
  :class:`ProfileCache` memoizes profiles, so re-plans and the next
  iteration's baseline are served from the cache.  The win over eager
  comes from that cache, not from overlap: evaluation runs on the
  planning thread in both arms.

The report includes wall-clock per arm, the cache hit rate, and an
equivalence check that the streaming arm adopts byte-identical flows.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_streaming_pipeline.py

or through pytest (``pytest benchmarks/bench_streaming_pipeline.py -s``).
The test suite smoke-runs :func:`run_comparison` on a tiny flow.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.core import Planner, ProcessingConfiguration  # noqa: E402
from repro.core.configuration import MeasureConstraint  # noqa: E402
from repro.core.pareto import pareto_front_profiles  # noqa: E402
from repro.core.planner import PlanningResult  # noqa: E402
from repro.quality.estimator import QualityEstimator  # noqa: E402
from repro.workloads import tpch_refresh_flow  # noqa: E402


def _select_best(planner: Planner, result):
    """The default session chooser: best skyline flow on the primary goal."""
    pool = result.skyline or result.alternatives
    primary = planner.configuration.skyline_characteristics[0]
    return max(pool, key=lambda alt: alt.profile.score(primary))


def _replan_configuration(config: ProcessingConfiguration) -> ProcessingConfiguration:
    """The user's tweaked configuration for the re-plan: add a loose constraint."""
    constraint = MeasureConstraint("reliability", min_value=0.0)
    return replace(config, constraints=config.constraints + (constraint,))


def _eager_plan(planner: Planner, flow):
    """The seed pipeline: materialize everything, evaluate as one barrier batch.

    Estimates come from a cacheless estimator over the planner's registry
    and settings, so every re-plan re-simulates every flow.
    """
    config = planner.configuration
    estimator = QualityEstimator(
        registry=planner.estimator.registry, settings=planner.estimator.settings
    )
    baseline = estimator.evaluate(flow)
    alternatives = list(planner.generator.generate_iter(flow))
    for alternative in alternatives:
        alternative.profile = estimator.evaluate(alternative.flow)
    kept, discarded = [], 0
    for alternative in alternatives:
        if config.satisfies_constraints(alternative.profile):
            kept.append(alternative)
        else:
            discarded += 1
    characteristics = tuple(config.skyline_characteristics)
    profiles = [alt.profile for alt in kept]
    skyline = pareto_front_profiles(profiles, characteristics) if profiles else []
    return PlanningResult(
        initial_flow=flow,
        baseline_profile=baseline,
        alternatives=kept,
        skyline_indices=skyline,
        characteristics=characteristics,
        discarded_by_constraints=discarded,
    )


def _run_session(flow, config: ProcessingConfiguration, iterations: int, replans: int, eager: bool):
    """Run one interactive session; returns (adopted signatures, evaluations, planner)."""
    planner = Planner(configuration=config)
    plan = (lambda f: _eager_plan(planner, f)) if eager else planner.plan
    current = flow
    adopted = []
    evaluated = 0
    for _ in range(iterations):
        result = plan(current)
        evaluated += len(result.alternatives) + 1
        for _ in range(replans):
            planner.configuration = _replan_configuration(config)
            result = plan(current)
            evaluated += len(result.alternatives) + 1
            planner.configuration = config
        best = _select_best(planner, result)
        adopted.append(best.flow.signature())
        current = best.flow
    return adopted, evaluated, planner


def run_comparison(
    flow=None,
    *,
    scale: float = 0.05,
    iterations: int = 2,
    replans: int = 1,
    simulation_runs: int = 5,
    pattern_budget: int = 2,
    max_points_per_pattern: int = 2,
    max_alternatives: int = 80,
) -> dict:
    """Time the two arms on one workload and return a comparison report."""
    if flow is None:
        flow = tpch_refresh_flow(scale=scale)
    base = dict(
        pattern_budget=pattern_budget,
        max_points_per_pattern=max_points_per_pattern,
        simulation_runs=simulation_runs,
        max_alternatives=max_alternatives,
    )

    arms = {}
    config = ProcessingConfiguration(**base)
    t0 = time.perf_counter()
    eager_adopted, eager_evals, _ = _run_session(flow, config, iterations, replans, eager=True)
    arms["eager"] = {"seconds": time.perf_counter() - t0, "evaluations": eager_evals}

    t0 = time.perf_counter()
    stream_adopted, stream_evals, stream_planner = _run_session(
        flow, config, iterations, replans, eager=False
    )
    arms["streaming"] = {
        "seconds": time.perf_counter() - t0,
        "evaluations": stream_evals,
        "cache": stream_planner.profile_cache.stats.as_dict(),
    }

    return {
        "workload": flow.name,
        "iterations": iterations,
        "replans_per_iteration": replans,
        "arms": arms,
        "equivalent_selections": stream_adopted == eager_adopted,
        "speedup_streaming_vs_eager": arms["eager"]["seconds"] / arms["streaming"]["seconds"],
    }


def _render_report(report: dict) -> str:
    lines = [
        f"workload: {report['workload']}  "
        f"({report['iterations']} iterations, {report['replans_per_iteration']} re-plan(s) each)",
        f"{'arm':<12} {'wall clock':>12} {'profiles evaluated':>20} {'cache hit rate':>16}",
    ]
    for name, arm in report["arms"].items():
        cache = arm.get("cache") or {}
        rate = f"{cache['hit_rate'] * 100.0:.1f}%" if cache else "off"
        lines.append(
            f"{name:<12} {arm['seconds']:>10.3f} s {arm['evaluations']:>20} {rate:>16}"
        )
    lines.append(
        "streaming vs eager: "
        f"{report['speedup_streaming_vs_eager']:.2f}x   "
        f"identical selections: {report['equivalent_selections']}"
    )
    return "\n".join(lines)


def test_streaming_pipeline_beats_eager():
    """Streaming + cached planning must beat the eager baseline on TPC-H."""
    report = run_comparison()
    print()
    print("=" * 78)
    print("ARTIFACT: streaming planning pipeline vs eager seed pipeline (TPC-H)")
    print("=" * 78)
    print(_render_report(report))
    assert report["equivalent_selections"], "streaming changed the adopted flows"
    assert report["arms"]["streaming"]["cache"]["hits"] > 0
    assert report["arms"]["streaming"]["seconds"] < report["arms"]["eager"]["seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--iterations", type=int, default=2)
    parser.add_argument("--replans", type=int, default=1)
    parser.add_argument("--simulation-runs", type=int, default=5)
    parser.add_argument("--json", action="store_true", help="emit the raw report as JSON")
    args = parser.parse_args(argv)
    report = run_comparison(
        scale=args.scale,
        iterations=args.iterations,
        replans=args.replans,
        simulation_runs=args.simulation_runs,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
