"""Alternative generation throughput on the TPC-H refresh workload.

Generation applies every pattern combination as a chain of deltas on
forks of the initial flow (operations are frozen values the forks
share), validates each step incrementally, deduplicates
via incrementally maintained signatures, and reuses the shared prefix of
consecutive combinations instead of re-applying it from the base flow.
This benchmark times that generator on the TPC-H refresh workload at
``pattern_budget=3`` and reports candidates/sec, the
application/validation time split and the prefix-reuse counters of
:class:`~repro.core.alternatives.GenerationStats`, and counts the cyclic
garbage collector's collections (per generation 0, 1 and 2) and their
seconds during each run, through ``gc.callbacks`` -- the library itself
never touches the collector.  Every repeat must
produce the identical alternative stream (same labels, same
signatures); equivalence with a from-scratch generator that rebuilds the
initial flow for every combination is the test suite's job
(``tests/reference_generator.py``).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_generation.py

or through pytest (``pytest benchmarks/bench_generation.py -s``).  The
test suite smoke-runs :func:`run_generation_bench` at tiny scale via
``benchmarks/run_all.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # pragma: no cover - environment guard
    sys.path.insert(0, str(_SRC))

from repro.core.alternatives import AlternativeGenerator  # noqa: E402
from repro.core.configuration import ProcessingConfiguration  # noqa: E402
from repro.core.policies import HeuristicPolicy  # noqa: E402
from repro.patterns.registry import default_palette  # noqa: E402
from repro.workloads import tpch_refresh_flow  # noqa: E402


class CollectionTally:
    """Cyclic-GC collections and their seconds per generation, while registered.

    A ``gc.callbacks`` hook: each collection's ``start``/``stop`` pair
    adds one to ``counts[generation]`` and its duration to
    ``seconds[generation]``.  Use it as a context manager around the
    code to account.
    """

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            generation = info["generation"]
            self.counts[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started
            self._started = None

    def __enter__(self) -> "CollectionTally":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self)

    def as_dict(self) -> dict:
        return {"collections": list(self.counts), "seconds": list(self.seconds)}


def _run_once(flow, **knobs):
    """One generation run; returns (seconds, [(label, signature)], stats dict, gc dict)."""
    configuration = ProcessingConfiguration(**knobs)
    generator = AlternativeGenerator(default_palette(), HeuristicPolicy(), configuration)
    with CollectionTally() as tally:
        started = time.perf_counter()
        alternatives = list(generator.generate_iter(flow))
        seconds = time.perf_counter() - started
    outcome = [(alt.label, alt.flow.signature()) for alt in alternatives]
    return seconds, outcome, generator.last_stats.as_dict(), tally.as_dict()


def run_generation_bench(
    flow=None,
    *,
    scale: float = 0.05,
    pattern_budget: int = 3,
    max_points_per_pattern: int = 3,
    max_alternatives: int = 1500,
    repeats: int = 3,
) -> dict:
    """Time generation and return a report.

    The generator runs ``repeats`` times; the reported wall-clock is the
    median, which keeps the figure robust against scheduler noise, and so
    are the per-generation collection counts and seconds (``gc``; every
    run's are in ``gc_runs``).
    """
    if flow is None:
        flow = tpch_refresh_flow(scale=scale)
    knobs = dict(
        pattern_budget=pattern_budget,
        max_points_per_pattern=max_points_per_pattern,
        max_alternatives=max_alternatives,
    )

    seconds: list[float] = []
    outcomes: list[list] = []
    stats: dict = {}
    gc_runs: list[dict] = []
    for _ in range(max(1, repeats)):
        elapsed, outcome, stats, collections = _run_once(flow, **knobs)
        seconds.append(elapsed)
        outcomes.append(outcome)
        gc_runs.append(collections)
    median_seconds = statistics.median(seconds)
    alternatives = len(outcomes[0])
    return {
        "workload": flow.name,
        "flow_operations": flow.node_count,
        "flow_transitions": flow.edge_count,
        **knobs,
        "repeats": repeats,
        "seconds": median_seconds,
        "seconds_all": seconds,
        "alternatives": alternatives,
        "candidates_per_second": alternatives / median_seconds if median_seconds > 0 else 0.0,
        "apply_seconds": stats["apply_seconds"],
        "validation_seconds": stats["validation_seconds"],
        "combinations_tried": stats["combinations_tried"],
        "patterns_applied": stats["patterns_applied"],
        "prefix_hits": stats["prefix_hits"],
        "prefix_steps_reused": stats["prefix_steps_reused"],
        "identical_alternatives": all(outcome == outcomes[0] for outcome in outcomes),
        "gc": {
            key: [statistics.median(run[key][g] for run in gc_runs) for g in range(3)]
            for key in ("collections", "seconds")
        },
        "gc_runs": gc_runs,
        "stats": stats,
    }


def _render_report(report: dict) -> str:
    return "\n".join(
        [
            f"workload: {report['workload']}  ({report['flow_operations']} operations, "
            f"budget={report['pattern_budget']}, "
            f"max_points={report['max_points_per_pattern']})",
            f"wall clock {report['seconds']:.3f} s, {report['alternatives']} alternatives, "
            f"{report['candidates_per_second']:.0f} cand/sec "
            f"(apply {report['apply_seconds']:.2f} s, "
            f"validate {report['validation_seconds']:.2f} s)",
            f"prefix cache: {report['patterns_applied']} applications for "
            f"{report['combinations_tried']} combinations, "
            f"{report['prefix_steps_reused']} steps reused",
            "gc collections per run (gen 0/1/2): "
            + "/".join(f"{count:g}" for count in report["gc"]["collections"])
            + " in "
            + "/".join(f"{seconds * 1000:.1f}" for seconds in report["gc"]["seconds"])
            + " ms",
            f"identical alternative streams across repeats: "
            f"{report['identical_alternatives']}",
        ]
    )


def test_generation_throughput():
    """Generation on TPC-H is deterministic and reuses combination prefixes."""
    report = run_generation_bench()
    print()
    print("=" * 78)
    print("ARTIFACT: forked, prefix-cached generation (TPC-H)")
    print("=" * 78)
    print(_render_report(report))
    assert report["identical_alternatives"], "repeats generated different streams"
    assert report["prefix_steps_reused"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--pattern-budget", type=int, default=3)
    parser.add_argument("--max-points", type=int, default=3)
    parser.add_argument("--max-alternatives", type=int, default=1500)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", action="store_true", help="emit the raw report as JSON")
    args = parser.parse_args(argv)
    report = run_generation_bench(
        scale=args.scale,
        pattern_budget=args.pattern_budget,
        max_points_per_pattern=args.max_points,
        max_alternatives=args.max_alternatives,
        repeats=args.repeats,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(_render_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
