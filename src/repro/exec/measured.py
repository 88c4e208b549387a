"""Measured runs: execute planned alternatives and score the simulator.

The planner ranks alternatives by *estimated* measures; this module
closes the loop by actually executing the top-k alternatives on sampled
workload data and comparing the measured wall-time ranking against the
simulated one.  The agreement statistic is Spearman's rank correlation
(average ranks for ties, Pearson over the ranks): 1.0 means the
simulator orders the top-k exactly as reality does, 0 means no
relationship.  The calibration benchmark asserts a floor on it.

Timing noise is handled the standard way for micro-measurement: every
alternative first runs once untimed (so no flow pays the one-off cost of
warming the process-wide expression and data caches -- the planner's
favourite executes first and would otherwise be penalised
systematically), then the timed ``repeats`` interleave round-robin
across alternatives (slow drift in machine load hits every flow alike
instead of whichever happened to run last) and the *minimum* wall time
counts -- the minimum is the least contaminated by scheduler noise, and
all alternatives see identical source data (same ``data_seed``), so the
remaining differences are attributable to flow structure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.exec.backends import ETLBackend
from repro.exec.executor import ExecutionReport, FlowExecutor, RecoveryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a core import cycle
    from repro.core.planner import PlanningResult

__all__ = [
    "DEFAULT_MEASURE",
    "MeasuredRun",
    "CalibrationReport",
    "execute_top_k",
    "spearman_correlation",
]

#: The simulated measure calibrated against wall time (lower is better).
DEFAULT_MEASURE = "process_cycle_time_ms"


def _average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks (1-based) with ties sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        average = (start + stop) / 2.0 + 1.0
        for position in range(start, stop + 1):
            ranks[order[position]] = average
        start = stop + 1
    return ranks


def spearman_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation of two paired samples.

    Returns 0.0 when either side is constant (the correlation is
    undefined there, and "no evidence of agreement" is the conservative
    reading for a calibration check).
    """
    if len(xs) != len(ys):
        raise ValueError(f"paired samples differ in length: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("rank correlation needs at least two pairs")
    rank_x = _average_ranks(xs)
    rank_y = _average_ranks(ys)
    n = len(xs)
    mean_x = sum(rank_x) / n
    mean_y = sum(rank_y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rank_x, rank_y))
    var_x = sum((a - mean_x) ** 2 for a in rank_x)
    var_y = sum((b - mean_y) ** 2 for b in rank_y)
    if var_x == 0.0 or var_y == 0.0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


@dataclass
class MeasuredRun:
    """One alternative's simulated estimate vs. measured execution."""

    label: str
    simulated: float
    measured_ms: float
    repeats_ms: list[float] = field(default_factory=list)
    rows_loaded: int = 0
    recovered_nodes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "simulated": round(self.simulated, 4),
            "measured_ms": round(self.measured_ms, 3),
            "repeats_ms": [round(v, 3) for v in self.repeats_ms],
            "rows_loaded": self.rows_loaded,
            "recovered_nodes": self.recovered_nodes,
        }


@dataclass
class CalibrationReport:
    """Simulated-vs-measured comparison over the executed top-k."""

    backend: str
    measure: str
    data_seed: int
    repeats: int
    pool: str = "skyline"
    runs: list[MeasuredRun] = field(default_factory=list)

    @property
    def spearman(self) -> float:
        """Rank agreement between simulated and measured orderings."""
        if len(self.runs) < 2:
            return 0.0
        return spearman_correlation(
            [run.simulated for run in self.runs],
            [run.measured_ms for run in self.runs],
        )

    @property
    def simulated_ranking(self) -> list[str]:
        """Labels best-first by the simulator's estimate."""
        return [r.label for r in sorted(self.runs, key=lambda run: run.simulated)]

    @property
    def measured_ranking(self) -> list[str]:
        """Labels best-first by measured wall time."""
        return [r.label for r in sorted(self.runs, key=lambda run: run.measured_ms)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "measure": self.measure,
            "data_seed": self.data_seed,
            "repeats": self.repeats,
            "pool": self.pool,
            "spearman": round(self.spearman, 4),
            "simulated_ranking": self.simulated_ranking,
            "measured_ranking": self.measured_ranking,
            "runs": [run.to_dict() for run in self.runs],
        }


def _simulated_value(alternative, measure: str) -> float | None:
    profile = alternative.profile
    if profile is None:
        return None
    entry = profile.values.get(measure)
    return None if entry is None else float(entry.value)


def execute_top_k(
    planning_result: "PlanningResult",
    backend: ETLBackend | None = None,
    k: int = 5,
    repeats: int = 2,
    data_seed: int = 7,
    policy: RecoveryPolicy | None = None,
    params: Mapping[str, Any] | None = None,
    measure: str = DEFAULT_MEASURE,
    pool: str = "skyline",
) -> CalibrationReport:
    """Execute the planner's top-k alternatives and score its ranking.

    ``pool`` picks which alternatives count as "planned": ``"skyline"``
    (default) draws from the Pareto-front designs -- the set the planner
    actually presents to the user, which spans structurally *different*
    redesigns (lean filter placements vs. checkpoint-bearing reliable
    flows) and therefore carries rank signal in both worlds; ``"all"``
    draws from every constraint-satisfying alternative, whose best-k are
    typically near-ties on the simulated measure (rank agreement over
    near-ties measures timing noise, not simulator fidelity).  Within
    the pool the k lowest simulated ``measure`` values are executed; if
    the pool is smaller than ``k`` it is topped up from the remaining
    alternatives in simulated order.

    Every alternative executes once untimed (cache warmup), then
    ``repeats`` timed rounds interleave across the alternatives on
    identical sampled data (``data_seed``); the minimum wall time per
    alternative enters the measured ranking.  The planning result itself
    is never mutated
    -- plans stay byte-identical to the non-executing path, which the
    calibration benchmark asserts via
    :meth:`~repro.core.planner.PlanningResult.fingerprint`.
    """
    if k < 2:
        raise ValueError(f"calibration needs k >= 2 alternatives, got k={k}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if pool not in ("skyline", "all"):
        raise ValueError(f"pool must be 'skyline' or 'all', got {pool!r}")

    def scored_from(alternatives) -> list[tuple[float, Any]]:
        pairs = [
            (value, alternative)
            for alternative in alternatives
            if (value := _simulated_value(alternative, measure)) is not None
        ]
        pairs.sort(key=lambda item: item[0])
        return pairs

    scored = scored_from(
        planning_result.skyline if pool == "skyline" else planning_result.alternatives
    )
    if len(scored) < k and pool == "skyline":
        chosen = {id(alternative) for _, alternative in scored}
        extra = [
            item
            for item in scored_from(planning_result.alternatives)
            if id(item[1]) not in chosen
        ]
        scored.extend(extra[: k - len(scored)])
        scored.sort(key=lambda item: item[0])
    if len(scored) < 2:
        raise ValueError(
            f"planning result has {len(scored)} alternative(s) with a "
            f"{measure!r} estimate; calibration needs at least 2"
        )
    top = scored[:k]

    executor = FlowExecutor(
        backend=backend, policy=policy, data_seed=data_seed, params=params
    )
    report = CalibrationReport(
        backend=executor.backend.name,
        measure=measure,
        data_seed=data_seed,
        repeats=repeats,
        pool=pool,
    )
    reports: list[ExecutionReport] = [
        executor.execute(alternative.flow) for _, alternative in top
    ]
    timings: list[list[float]] = [[] for _ in top]
    for _ in range(repeats):
        for index, (_, alternative) in enumerate(top):
            started = time.perf_counter()
            executor.execute(alternative.flow)
            timings[index].append((time.perf_counter() - started) * 1000.0)
    for index, (simulated, alternative) in enumerate(top):
        report.runs.append(
            MeasuredRun(
                label=alternative.label or alternative.flow.name,
                simulated=simulated,
                measured_ms=min(timings[index]),
                repeats_ms=timings[index],
                rows_loaded=reports[index].rows_loaded,
                recovered_nodes=len(reports[index].recovered_nodes()),
            )
        )
    return report
