"""The POIESIS planner.

Wires the three stages of the architecture shown in Fig. 3 -- *Pattern
Generation*, *Pattern Application* and *Measures Estimation* -- into one
planning run: given an initial ETL flow and a processing configuration,
the planner produces a set of alternative ETL flows with quality profiles,
filters them against the user's constraints, and computes the Pareto
frontier (skyline) presented to the user together with the relative-change
comparison of every alternative against the initial flow.

The stages run as a *streaming pipeline* on the planning thread:
candidates flow out of the lazy generator into the evaluator one window
(``eval_batch_size``) at a time -- one batched cache lookup per window,
the initial flow's own profile riding in the first -- and profiles are
memoized in one shared cache backend, so re-plans and session
iterations simulate only flows they have not profiled yet.
Every candidate gets its full simulated profile; the results are
identical to planning from scratch (``tests/reference_planner.py``).
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.cache import CacheBackend, build_profile_cache
from repro.obs.metrics import maybe_timer
from repro.core.alternatives import AlternativeFlow, AlternativeGenerator
from repro.core.comparison import FlowComparison, compare_profiles
from repro.core.configuration import ProcessingConfiguration
from repro.core.evaluator import ParallelEvaluator
from repro.core.pareto import pareto_front_profiles
from repro.core.policies import DeploymentPolicy, policy_by_name
from repro.etl.graph import ETLGraph
from repro.etl.validation import validate_flow
from repro.patterns.registry import PatternRegistry, default_palette
from repro.quality.composite import QualityProfile
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.quality.framework import MeasureRegistry, QualityCharacteristic, default_registry

logger = logging.getLogger("repro.core.planner")


@dataclass
class PlanningResult:
    """The outcome of one planning run.

    Attributes
    ----------
    initial_flow:
        The flow the planning run started from.
    baseline_profile:
        Quality profile of the initial flow (the Fig. 5 baseline).
    alternatives:
        Every generated alternative that satisfied the constraints, with
        its quality profile.
    skyline_indices:
        Indices (into ``alternatives``) of the Pareto-optimal designs --
        the only points the scatter plot shows.
    characteristics:
        The quality dimensions the skyline was computed on.
    discarded_by_constraints:
        Number of alternatives dropped because they violated a constraint.
    """

    initial_flow: ETLGraph
    baseline_profile: QualityProfile
    alternatives: list[AlternativeFlow] = field(default_factory=list)
    skyline_indices: list[int] = field(default_factory=list)
    characteristics: tuple[QualityCharacteristic, ...] = ()
    discarded_by_constraints: int = 0

    @property
    def skyline(self) -> list[AlternativeFlow]:
        """The Pareto-optimal alternative flows."""
        return [self.alternatives[i] for i in self.skyline_indices]

    def comparison(self, alternative: AlternativeFlow) -> FlowComparison:
        """The Fig. 5 relative-change view of one alternative vs. the initial flow."""
        if alternative.profile is None:
            raise ValueError("the alternative has not been evaluated yet")
        return compare_profiles(
            alternative.profile,
            self.baseline_profile,
            alternative.flow.name,
            self.initial_flow.name,
        )

    def best_for(self, characteristic: QualityCharacteristic) -> AlternativeFlow:
        """The alternative with the highest composite score on one characteristic.

        Unevaluated alternatives (``profile is None``) are skipped rather
        than silently scored as 0.0; if nothing has been evaluated the
        ranking would be meaningless, so a :class:`ValueError` is raised.
        """
        if not self.alternatives:
            raise ValueError("the planning run produced no alternatives")
        evaluated = [alt for alt in self.alternatives if alt.profile is not None]
        if not evaluated:
            raise ValueError("none of the alternatives has been evaluated yet")
        return max(evaluated, key=lambda alt: alt.profile.score(characteristic))

    def fingerprint(self) -> tuple:
        """A hashable digest of everything observable about this result.

        Baseline measure values, per-alternative flow signatures with
        their full profiles (values and composite scores), and the
        skyline -- two results compare equal iff a user could not tell
        them apart.  This is the equality the tier-equivalence and
        service-equivalence suites (and the benchmarks' ``identical``
        columns) assert on; keep it exhaustive, never approximate.
        """

        def profile_fingerprint(profile: QualityProfile | None) -> tuple | None:
            if profile is None:
                return None
            table = profile.table
            return (
                tuple(sorted(zip(table.names, profile.raw_values))),
                tuple(sorted(zip((c.value for c in table.composites), profile.composite_scores))),
            )

        return (
            profile_fingerprint(self.baseline_profile),
            tuple(
                (alt.flow.signature(), profile_fingerprint(alt.profile))
                for alt in self.alternatives
            ),
            tuple(self.skyline_indices),
        )

    def summary(self) -> dict[str, object]:
        """Compact numeric summary of the planning run (used by reports/benches)."""
        return {
            "initial_flow": self.initial_flow.name,
            "alternatives": len(self.alternatives),
            "skyline_size": len(self.skyline_indices),
            "discarded_by_constraints": self.discarded_by_constraints,
            "characteristics": [c.value for c in self.characteristics],
        }


class Planner:
    """The POIESIS Planner component.

    Parameters
    ----------
    palette:
        The repository of available Flow Component Patterns; defaults to
        the full built-in palette.
    configuration:
        User-defined processing configuration; defaults to a heuristic
        policy with a pattern budget of 2.
    policy:
        Pre-built deployment policy overriding ``configuration.policy``.
    measures:
        Measure registry used for the quality estimation; defaults to the
        Fig. 1-style default registry.
    profile_cache:
        Pre-built cache backend overriding the tier the configuration
        would select -- the hook the redesign service uses to make a
        whole worker pool of concurrent sessions share one tier.
    """

    def __init__(
        self,
        palette: PatternRegistry | None = None,
        configuration: ProcessingConfiguration | None = None,
        policy: DeploymentPolicy | None = None,
        measures: MeasureRegistry | None = None,
        profile_cache: CacheBackend | None = None,
    ) -> None:
        self.palette = palette or default_palette()
        self.configuration = configuration or ProcessingConfiguration()
        self.policy = policy or policy_by_name(
            self.configuration.policy,
            priorities=dict(self.configuration.goal_priorities) or None,
            seed=self.configuration.seed,
        )
        self.measures = measures or default_registry()
        # The metrics registry every component of this planner records
        # into; ``None`` (the default) keeps all instrumentation sites on
        # their free fast path.
        self.metrics = self.configuration.metrics_registry
        # The cache tier follows from the configuration -- the default
        # in-process LRU, memory over a cache_dir, or a ring of cache
        # servers at cache_urls -- unless the caller injected a shared
        # backend.  Either way the planner always has one, and it serves
        # every re-plan and -- through RedesignSession -- every iteration.
        if profile_cache is not None:
            self.profile_cache: CacheBackend = profile_cache
        else:
            self.profile_cache = build_profile_cache(
                cache_dir=self.configuration.cache_dir,
                max_bytes=self.configuration.cache_max_bytes,
                urls=self.configuration.cache_urls,
                timeout=self.configuration.cache_timeout,
                auth_token=self.configuration.cache_auth_token,
                registry=self.metrics,
            )
        estimator_settings = EstimationSettings(
            simulation_runs=self.configuration.simulation_runs,
            seed=self.configuration.seed,
        )
        self.estimator = QualityEstimator(
            registry=self.measures, settings=estimator_settings, cache=self.profile_cache
        )
        self.evaluator = ParallelEvaluator(estimator=self.estimator, registry=self.metrics)
        self.generator = AlternativeGenerator(
            palette=self.palette, policy=self.policy, configuration=self.configuration
        )

    # ------------------------------------------------------------------
    # Individual stages (exposed for benchmarks and fine-grained use)
    # ------------------------------------------------------------------

    def stream_alternatives(self, flow: ETLGraph) -> Iterator[AlternativeFlow]:
        """Pattern Generation + Pattern Application: lazily produce alternative flows."""
        validate_flow(flow, raise_on_error=True)
        return self.generator.generate_iter(flow)

    def evaluate_alternatives(
        self, alternatives: Sequence[AlternativeFlow]
    ) -> list[AlternativeFlow]:
        """Measures Estimation: fill in the quality profile of each alternative."""
        return self.evaluator.evaluate(list(alternatives))

    def evaluate_flow(self, flow: ETLGraph) -> QualityProfile:
        """Evaluate a single flow outside a plan (a session's current flow, say).

        :meth:`plan` resolves the initial flow's profile in its first
        evaluation window instead.
        """
        return self.estimator.evaluate(flow)

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------

    def plan(
        self,
        flow: ETLGraph,
        on_evaluated: Callable[[AlternativeFlow], None] | None = None,
    ) -> PlanningResult:
        """Run the full pipeline on an initial flow and return the result.

        ``on_evaluated`` is called once per alternative as its profile
        completes (in stream order, before constraint filtering) -- the
        hook live progress reporting (the redesign service's status
        endpoint) is built on.  The callback must be cheap and must not
        raise; it runs on the planning thread.

        Contract
        --------
        * ``flow`` must pass :func:`~repro.etl.validation.validate_flow`
          (a :class:`~repro.etl.validation.ValidationError` is raised
          otherwise, before any cache traffic) and is **never
          mutated**: candidates are forks of it that share its frozen
          operations and write only to their own copies of its
          structure.
        * The call is eager (it returns a fully evaluated
          :class:`PlanningResult`) but internally *streaming*: candidates
          flow from the lazy generator into the evaluator one window of
          ``eval_batch_size`` candidates at a time, so memory stays
          proportional to the window, not to the alternative space.  Use
          :meth:`stream_alternatives` for candidate-by-candidate control.
        * Deterministic for a fixed configuration: same flow + same
          :class:`~repro.core.configuration.ProcessingConfiguration`
          (including ``seed``) produce the same alternatives, labels,
          profiles and skyline, whichever fleet worker plans them, and
          whether the profile cache is cold or warm.
        """
        with self.estimator.shared_simulation():
            return self._plan(flow, on_evaluated)

    def _plan(
        self,
        flow: ETLGraph,
        on_evaluated: Callable[[AlternativeFlow], None] | None,
    ) -> PlanningResult:
        """:meth:`plan`, inside one shared simulation scope (baseline included)."""
        config = self.configuration
        registry = self.metrics
        campaign = maybe_timer(registry, "planner.plan_seconds")
        campaign.__enter__()
        candidates: Iterable[AlternativeFlow] = self.stream_alternatives(flow)
        if registry is not None:
            candidates = self._timed_generation(candidates, registry)

        kept: list[AlternativeFlow] = []
        discarded = 0
        with maybe_timer(registry, "planner.phase.estimate_seconds"):
            # The initial flow heads the stream, so its profile shares the
            # first window's batched lookup (and a miss is estimated and
            # stored there); it is taken off before the hook, the
            # constraint filter and the counters see the stream.
            baseline = AlternativeFlow(flow)
            stream = self.evaluator.evaluate_stream(
                itertools.chain((baseline,), candidates),
                batch_size=config.eval_batch_size,
            )
            next(stream)
            baseline_profile = baseline.profile
            assert baseline_profile is not None
            for alternative in stream:
                assert alternative.profile is not None
                if on_evaluated is not None:
                    on_evaluated(alternative)
                if config.satisfies_constraints(alternative.profile):
                    kept.append(alternative)
                else:
                    discarded += 1

        with maybe_timer(registry, "planner.phase.rank_seconds"):
            characteristics = tuple(config.skyline_characteristics)
            profiles = [alt.profile for alt in kept if alt.profile is not None]
            skyline = pareto_front_profiles(profiles, characteristics) if profiles else []

        campaign.__exit__(None, None, None)
        if registry is not None:
            registry.counter("planner.plans").inc()
            registry.counter("planner.alternatives_evaluated").inc(len(kept) + discarded)
        logger.info(
            "planned %s: %d alternatives (%d skyline, %d discarded) in %.3fs",
            flow.name,
            len(kept),
            len(skyline),
            discarded,
            campaign.elapsed,
        )
        return PlanningResult(
            initial_flow=flow,
            baseline_profile=baseline_profile,
            alternatives=kept,
            skyline_indices=skyline,
            characteristics=characteristics,
            discarded_by_constraints=discarded,
        )

    def execute_top_k(
        self,
        flow: ETLGraph,
        k: int = 5,
        repeats: int = 2,
        data_seed: int = 7,
        planning_result: "PlanningResult | None" = None,
    ) -> tuple["PlanningResult", "object"]:
        """Plan a flow, then *execute* its top-k alternatives (calibration).

        Runs the ordinary planning pipeline (or reuses an existing
        ``planning_result`` for the same flow), compiles the planner's
        top-k designs, runs them on sampled workload data with the
        pure-Python :class:`~repro.exec.backends.LocalBackend`, and returns
        ``(planning_result, calibration_report)`` where the report
        carries measured wall times and the simulated-vs-measured
        Spearman rank correlation
        (:class:`repro.exec.measured.CalibrationReport`).

        Execution is strictly read-only with respect to planning: the
        returned planning result is byte-identical (fingerprint-equal)
        to what :meth:`plan` alone produces.
        """
        from repro.exec.measured import execute_top_k as _execute_top_k

        result = planning_result if planning_result is not None else self.plan(flow)
        report = _execute_top_k(result, k=k, repeats=repeats, data_seed=data_seed)
        return result, report

    def _timed_generation(
        self, candidates: Iterable[AlternativeFlow], registry
    ) -> Iterator[AlternativeFlow]:
        """Meter the time spent *inside* the lazy generator.

        Generation and estimation interleave window by window in the
        streaming pipeline, so the generate phase cannot be a wall-clock
        bracket around the loop; instead the time spent pulling each candidate out of the
        generator is accumulated and observed once per campaign as
        ``planner.phase.generate_seconds``.
        """
        total = 0.0
        iterator = iter(candidates)
        while True:
            start = time.perf_counter()
            try:
                candidate = next(iterator)
            except StopIteration:
                total += time.perf_counter() - start
                break
            total += time.perf_counter() - start
            yield candidate
        registry.histogram("planner.phase.generate_seconds").observe(total)
