"""Generation of alternative ETL flows.

The Pattern Generation / Pattern Application stages of the POIESIS
architecture (Fig. 3): for every pattern of the palette the valid
application points are enumerated on the initial flow, a deployment policy
selects which points to use, and alternative flows are produced by
deploying the patterns in varying positions and combinations -- singles,
pairs, triples, ... up to the configured pattern budget.  The complexity
of the full space is factorial in the size of the graph (Section 2.2), so
generation is bounded by ``max_alternatives`` and duplicate structures are
pruned via graph signatures.

The per-candidate cost is proportional to the *delta* a pattern
introduces, not to the flow: combinations are applied as chained
flow copies sharing every untouched operation, validated with
:func:`~repro.etl.validation.validate_delta`, and deduplicated via
incrementally maintained signatures.

``itertools.combinations`` enumerates in lexicographic order, so
consecutive combinations share long prefixes: at ``pattern_budget=3`` the
chain ``(a, b, c)`` differs from its predecessor ``(a, b, c')`` only in
the last deployment.  The generator keeps the last chain's intermediate
flows and their incrementally validated issue lists, keyed by deployment
prefix, and extends the deepest cached prefix instead of re-applying it
from the base flow.  :class:`GenerationStats` reports the reuse
(``prefix_hits`` / ``prefix_steps_reused`` / ``patterns_applied``) and
the application/validation time split.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.configuration import ProcessingConfiguration
from repro.core.policies import DeploymentPolicy, HeuristicPolicy
from repro.etl.graph import ETLGraph
from repro.etl.validation import (
    ValidationIssue,
    has_errors,
    is_valid,
    validate_delta,
    validate_flow,
)
from repro.patterns.base import (
    ApplicationPoint,
    ApplicationPointType,
    FlowComponentPattern,
    PatternApplication,
)
from repro.patterns.registry import PatternRegistry
from repro.quality.composite import QualityProfile


@dataclass
class AlternativeFlow:
    """One alternative ETL design produced by the planner.

    Attributes
    ----------
    flow:
        The redesigned ETL flow.
    applications:
        The pattern deployments that produced it, in application order.
    profile:
        Quality profile filled in by the Measures Estimation stage
        (``None`` until evaluated).
    label:
        Display label (``ETL Flow 1``, ``ETL Flow 2``, ... as in Fig. 3).
    """

    flow: ETLGraph
    applications: tuple[PatternApplication, ...] = ()
    profile: QualityProfile | None = None
    label: str = ""

    def describe(self) -> str:
        """Human-readable summary of the applied patterns."""
        if not self.applications:
            return "initial flow (no patterns applied)"
        return " + ".join(app.describe() for app in self.applications)

    @property
    def pattern_names(self) -> tuple[str, ...]:
        """Names of the applied patterns, in order."""
        return tuple(app.pattern for app in self.applications)


@dataclass(frozen=True)
class _Deployment:
    """One candidate (pattern, point) pair selected by the policy.

    ``application`` is the record every successful deployment of the
    pair appends (one shared value, not one per alternative), and
    ``conflict`` its identity for :meth:`AlternativeGenerator._combination_is_reasonable`:
    two deployments may not share a combination when their conflict keys
    are equal -- the same pattern at the same point, or the same
    graph-level pattern twice.  ``checks`` are the predicates of the
    pattern's prerequisites, read once per generation run instead of
    once per re-check; ``None`` when the pattern overrides
    :meth:`~repro.patterns.base.FlowComponentPattern.is_applicable_at`.
    """

    pattern: FlowComponentPattern
    point: ApplicationPoint
    application: PatternApplication = field(init=False, compare=False, repr=False)
    conflict: tuple = field(init=False, compare=False, repr=False)
    checks: tuple | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        pattern = self.pattern
        name = pattern.name
        object.__setattr__(self, "application", PatternApplication(name, self.point))
        checks = None
        applicable = getattr(pattern.is_applicable_at, "__func__", None)
        if applicable is FlowComponentPattern.is_applicable_at:
            checks = tuple(prerequisite.predicate for prerequisite in pattern.prerequisites())
        object.__setattr__(self, "checks", checks)
        if self.point.point_type is ApplicationPointType.GRAPH:
            conflict = (name, ApplicationPointType.GRAPH.value)
        else:
            conflict = (name,) + self.point.key()
        object.__setattr__(self, "conflict", conflict)


@dataclass
class _PrefixEntry:
    """Cached state after one deployment position of the last chain.

    The prefix cache is a stack aligned with the positions of the most
    recently processed combination: entry ``i`` holds the state reached
    after processing deployments ``combo[:i + 1]`` from the base flow.
    ``flow`` is the resulting (unmutated) intermediate flow, ``applied``
    the pattern applications that actually took effect (deployments whose
    point vanished are processed but apply nothing), ``chained`` whether
    every applied step recorded a composable delta, and ``issues`` the
    flow's complete validated issue list (``None`` once a step recorded no
    composable delta).
    """

    deployment: _Deployment
    flow: ETLGraph
    applied: tuple[PatternApplication, ...]
    chained: bool
    issues: list[ValidationIssue] | None


@dataclass
class GenerationStats:
    """Cost accounting of one :meth:`AlternativeGenerator.generate_iter` run.

    Filled in as the generator is consumed and exposed as
    ``generator.last_stats``; the generation benchmark reads it to report
    the candidates/sec rate and the application/validation time split.
    """

    combinations_tried: int = 0
    yielded: int = 0
    duplicates_pruned: int = 0
    invalid_discarded: int = 0
    #: Successful ``pattern.apply`` calls -- the unit of work the prefix
    #: cache saves.
    patterns_applied: int = 0
    #: Combinations that reused at least one cached prefix step.
    prefix_hits: int = 0
    #: Deployment positions served from the prefix cache instead of being
    #: re-processed (refreshed, applied and re-validated).
    prefix_steps_reused: int = 0
    apply_seconds: float = 0.0
    validation_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def candidates_per_second(self) -> float:
        """Yielded alternatives per second of generator wall-clock."""
        return self.yielded / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly snapshot (used by benchmarks)."""
        return {
            "combinations_tried": self.combinations_tried,
            "yielded": self.yielded,
            "duplicates_pruned": self.duplicates_pruned,
            "invalid_discarded": self.invalid_discarded,
            "patterns_applied": self.patterns_applied,
            "prefix_hits": self.prefix_hits,
            "prefix_steps_reused": self.prefix_steps_reused,
            "apply_seconds": self.apply_seconds,
            "validation_seconds": self.validation_seconds,
            "wall_seconds": self.wall_seconds,
            "candidates_per_second": self.candidates_per_second,
        }


class AlternativeGenerator:
    """Generates alternative flows from an initial flow and a palette."""

    def __init__(
        self,
        palette: PatternRegistry,
        policy: DeploymentPolicy | None = None,
        configuration: ProcessingConfiguration | None = None,
    ) -> None:
        self.palette = palette
        self.policy = policy or HeuristicPolicy()
        self.configuration = configuration or ProcessingConfiguration()
        #: Cost accounting of the most recent ``generate_iter`` run.
        self.last_stats = GenerationStats()

    # ------------------------------------------------------------------
    # Pattern generation (candidate deployments)
    # ------------------------------------------------------------------

    def candidate_deployments(self, flow: ETLGraph) -> list[_Deployment]:
        """All (pattern, point) pairs selected by the policy on ``flow``."""
        config = self.configuration
        patterns: Sequence[FlowComponentPattern] = list(self.palette)
        if config.pattern_names:
            patterns = [self.palette.get(name) for name in config.pattern_names]
        patterns = self.policy.select_patterns(patterns)

        deployments: list[_Deployment] = []
        for pattern in patterns:
            valid_points = pattern.find_application_points(flow)
            selected = self.policy.select_points(
                pattern, valid_points, flow, config.max_points_per_pattern
            )
            deployments.extend(_Deployment(pattern, point) for point in selected)
        return deployments

    def application_point_counts(self, flow: ETLGraph) -> dict[str, int]:
        """Number of *valid* application points per pattern (before the policy).

        Used by the DEMO1 benchmark to report the raw size of the problem
        space the paper calls factorial.
        """
        counts: dict[str, int] = {}
        for pattern in self.palette:
            counts[pattern.name] = len(pattern.find_application_points(flow))
        return counts

    # ------------------------------------------------------------------
    # Pattern application (alternative flows)
    # ------------------------------------------------------------------

    def generate_iter(self, flow: ETLGraph) -> Iterator[AlternativeFlow]:
        """Lazily produce alternative flows by combining candidate deployments.

        Combinations of size 1 up to ``pattern_budget`` are enumerated in
        increasing size; each combination is applied sequentially on a copy
        of the initial flow.  Deployments whose application point
        disappeared because of an earlier deployment in the same
        combination are skipped; combinations that end up applying nothing
        new, produce an invalid flow, or duplicate an already generated
        structure are discarded.

        This is a *true* generator: each alternative is built only when
        the consumer asks for the next one, so a streaming evaluator (or a
        benchmark slicing the space) never pays for candidates it does not
        consume.  Labels (``ETL Flow 1``, ``ETL Flow 2``, ...) follow the
        enumeration order.

        The stream forks ``flow`` itself, so ``flow`` must not change
        while the stream is being consumed.

        Every pattern in a combination is applied as a chained delta: each
        step is a flow copy recording its difference from the
        previous one, validity is maintained incrementally with
        :func:`~repro.etl.validation.validate_delta`, and deduplication
        reads the incrementally maintained signatures.  The intermediate
        state of the last combination's chain is kept per deployment
        prefix; because the lexicographic enumeration makes shared
        prefixes contiguous, extending ``(a, b)`` to ``(a, b, c)`` reuses
        the cached ``(a, b)`` flow and its validated issue list instead of
        re-applying from the base flow.  The stream is byte-identical to
        applying every combination from scratch on a rebuilt ``flow``
        and validating each result in full.
        """
        config = self.configuration
        stats = GenerationStats()
        self.last_stats = stats
        started = time.perf_counter()
        # Every candidate forks the caller's flow directly: operations
        # are frozen values and forks privatize adjacency before writing,
        # so generation never changes the caller's graph.
        deployments = self.candidate_deployments(flow)
        # With pairwise distinct conflict keys -- the usual case: each
        # pattern appears once and lists each point once -- every
        # combination is reasonable, which is proven here once for the
        # whole run instead of per combination.
        screen = len({deployment.conflict for deployment in deployments}) < len(deployments)
        produced = 0
        seen_signatures = {flow.signature()}
        # The base issue list and the prefix cache are scoped to this run:
        # interleaved lazy runs on other flows keep their own.
        base_issues = validate_flow(flow)
        prefix_stack: list[_PrefixEntry] = []

        try:
            for combo_size in range(1, config.pattern_budget + 1):
                for combo in itertools.combinations(deployments, combo_size):
                    if produced >= config.max_alternatives:
                        return
                    if screen and not self._combination_is_reasonable(combo):
                        continue
                    stats.combinations_tried += 1
                    alternative = self._apply_combination(
                        flow, base_issues, combo, prefix_stack
                    )
                    if alternative is None:
                        continue
                    # One insertion answers the membership test too:
                    # hashing a signature walks every entry of it.
                    seen = len(seen_signatures)
                    seen_signatures.add(alternative.flow.signature())
                    if len(seen_signatures) == seen:
                        stats.duplicates_pruned += 1
                        continue
                    produced += 1
                    stats.yielded = produced
                    alternative.label = f"ETL Flow {produced}"
                    yield alternative
        finally:
            stats.wall_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------

    def _combination_is_reasonable(self, combo: Sequence[_Deployment]) -> bool:
        """Whether no two deployments of ``combo`` conflict.

        Two deployments conflict when they deploy the same pattern at the
        same point, or the same graph-level pattern twice (see
        :class:`_Deployment`); a combination holding a conflicting pair
        is redundant.
        """
        return len({deployment.conflict for deployment in combo}) == len(combo)

    def _apply_combination(
        self,
        flow: ETLGraph,
        base_issues: list[ValidationIssue],
        combo: Sequence[_Deployment],
        stack: list[_PrefixEntry],
    ) -> AlternativeFlow | None:
        """Apply a combination, resuming from the deepest cached prefix.

        ``base_issues`` is the full issue list of ``flow``, the base every
        chain starts from.  ``stack`` holds the intermediate states of the previously
        processed chain, one entry per deployment position (the final
        position is never cached: consecutive same-size combinations
        differ in their last deployment, so a full-chain state can never
        be a prefix of the next combination).  The longest shared prefix
        with ``combo`` is kept, everything deeper is dropped, and only
        the remaining positions are processed -- refreshed, applied and
        validated incrementally with their own step delta against the
        cached prefix's issue list.

        Reuse is sound because pattern application never mutates its
        host and is deterministic in the host state (see
        :meth:`~repro.patterns.base.FlowComponentPattern.apply`): the
        cached state after ``(a, b)`` is byte-identical to what
        re-processing ``(a, b)`` from the base flow would rebuild.
        """
        stats = self.last_stats
        reused = 0
        limit = min(len(stack), len(combo) - 1)
        while reused < limit and stack[reused].deployment is combo[reused]:
            reused += 1
        del stack[reused:]
        if reused:
            entry = stack[-1]
            current = entry.flow
            applied = list(entry.applied)
            chained = entry.chained
            issues = entry.issues
            stats.prefix_hits += 1
            stats.prefix_steps_reused += reused
        else:
            current = flow
            applied = []
            chained = True
            issues = base_issues

        last = len(combo) - 1
        for index in range(reused, len(combo)):
            deployment = combo[index]
            # The base flow is where every point was found valid, so a
            # step on it skips the prerequisite re-check.
            if current is flow:
                point = deployment.point
            else:
                point = self._refresh_point(current, deployment)
            if point is not None:
                tick = time.perf_counter()
                try:
                    derived = deployment.pattern.apply(current, point)
                except (KeyError, ValueError):
                    derived = None
                finally:
                    stats.apply_seconds += time.perf_counter() - tick
                if derived is not None:
                    stats.patterns_applied += 1
                    if chained:
                        if derived.delta is not None and derived.derived_from(current):
                            tick = time.perf_counter()
                            issues = validate_delta(derived, derived.delta, issues)
                            stats.validation_seconds += time.perf_counter() - tick
                        else:
                            # A step without a composable delta: from here
                            # on (and for every deeper cached prefix) the
                            # final check falls back to the full oracle.
                            chained = False
                            issues = None
                    current = derived
                    applied.append(deployment.application)
            if index < last:
                stack.append(
                    _PrefixEntry(deployment, current, tuple(applied), chained, issues)
                )
        if not applied:
            return None
        if chained:
            valid = not has_errors(issues)
        else:
            tick = time.perf_counter()
            valid = is_valid(current)
            stats.validation_seconds += time.perf_counter() - tick
        if not valid:
            stats.invalid_discarded += 1
            return None
        current.name = f"{flow.name}__{'+'.join(app.pattern for app in applied)}"
        return AlternativeFlow(flow=current, applications=tuple(applied))

    def _refresh_point(
        self, current: ETLGraph, deployment: _Deployment
    ) -> ApplicationPoint | None:
        """Check that the deployment's point still exists and is still valid.

        Equal to ``pattern.is_applicable_at(current, point)`` after the
        existence check: the point has the pattern's point type (the
        pattern found it), and the prerequisites are the ones the
        deployment read at the start of the run.
        """
        point = deployment.point
        point_type = point.point_type
        if point_type is ApplicationPointType.NODE:
            if point.node_id not in current:
                return None
        elif point_type is ApplicationPointType.EDGE:
            if not current.has_edge(*point.edge):
                return None
        checks = deployment.checks
        if checks is None:
            if not deployment.pattern.is_applicable_at(current, point):
                return None
        else:
            for check in checks:
                if not check(current, point):
                    return None
        return point
