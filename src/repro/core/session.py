"""Iterative redesign sessions.

What is unique about POIESIS is that the redesign process takes place in
an iterative, incremental and intuitive fashion (Section 3): the planner
generates and evaluates alternatives, the user selects one based on the
skyline and the measure comparison, the tool merges the corresponding
patterns into the existing process flow, and a new iteration cycle
commences until the user considers that the flow adequately satisfies the
quality goals.  :class:`RedesignSession` drives that loop programmatically
(the reproduction's stand-in for the interactive UI).

The session reuses one planner -- and therefore one shared profile
cache (any :mod:`repro.cache` tier) -- across all iterations and
re-plans: flows profiled in iteration N (including the adopted
alternative, which becomes iteration N+1's baseline) are never
re-simulated later.  With ``cache_dir`` set that sharing extends across
*sessions and processes*: parallel sessions pointed at one ``cache_dir``
serve each other's profiles, and a new run starts warm.
With ``cache_urls`` set the sharing spans *machines*: every session
pointed at the same :class:`repro.service.CacheServer` shards reads and
writes the same store, and the redesign service runs a whole worker
pool of concurrent sessions on one injected backend.
:meth:`RedesignSession.cache_stats` exposes the accumulated hit/miss
accounting (with a per-tier breakdown -- memory and disk, or each
shard's client/server/fallback split) for reports and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cache.backend import CacheBackend, cache_stats_dict
from repro.core.alternatives import AlternativeFlow
from repro.core.comparison import FlowComparison
from repro.core.configuration import ProcessingConfiguration
from repro.core.planner import Planner, PlanningResult
from repro.etl.graph import ETLGraph
from repro.patterns.registry import PatternRegistry
from repro.quality.composite import QualityProfile
from repro.quality.framework import QualityCharacteristic


@dataclass
class SessionIteration:
    """Record of one iteration cycle of a redesign session."""

    index: int
    result: PlanningResult
    selected: AlternativeFlow | None = None

    @property
    def selected_comparison(self) -> FlowComparison | None:
        """The Fig. 5 comparison of the selected alternative, if any."""
        if self.selected is None:
            return None
        return self.result.comparison(self.selected)


class RedesignSession:
    """Drives the iterative, incremental redesign of one ETL process.

    The session is the programmatic stand-in for the paper's interactive
    loop: :meth:`iterate` plans on the current flow, :meth:`select` (or
    :meth:`select_best`) adopts one alternative as the new current flow,
    and :meth:`run` repeats the cycle with a pluggable chooser.

    Contract
    --------
    * One planner -- and therefore one shared
      :class:`~repro.cache.ProfileCache` -- serves every
      iteration: a flow profiled in iteration N (including the adopted
      alternative, which becomes iteration N+1's baseline) is never
      re-simulated.  :meth:`cache_stats` exposes the accumulated
      accounting.
    * ``initial_flow`` is never mutated by the session; adopting an
      alternative rebinds :attr:`current_flow` to the alternative's flow
      object (it is *not* copied -- callers who keep mutating selected
      flows should copy first).
    * :meth:`select` only accepts alternatives of the **latest**
      iteration; earlier iterations are history, matching the paper's
      incremental process.
    * Sessions are deterministic under a fixed configuration: replaying
      the same choices yields the same flows and profiles, whether the
      profile cache starts cold or warm.

    Parameters
    ----------
    initial_flow:
        The imported ETL process model the session starts from.
    planner:
        The planner used on every iteration; a default one is built from
        ``palette`` / ``configuration`` when omitted.
    palette, configuration:
        Forwarded to the default planner.
    """

    def __init__(
        self,
        initial_flow: ETLGraph,
        planner: Planner | None = None,
        palette: PatternRegistry | None = None,
        configuration: ProcessingConfiguration | None = None,
    ) -> None:
        self.initial_flow = initial_flow
        self.planner = planner or Planner(palette=palette, configuration=configuration)
        self.current_flow = initial_flow
        self.iterations: list[SessionIteration] = []

    # ------------------------------------------------------------------

    @property
    def iteration_count(self) -> int:
        """Number of completed planning iterations."""
        return len(self.iterations)

    @property
    def profile_cache(self) -> CacheBackend:
        """The planner's shared profile cache."""
        return self.planner.profile_cache

    def cache_stats(self) -> dict[str, object]:
        """Hit/miss statistics accumulated across all iterations so far.

        The top-level keys are the logical counters (one hit or miss per
        lookup regardless of tier); the ``"tiers"`` key breaks them down
        per cache tier (a single ``"memory"`` or ``"disk"`` entry,
        ``overall``/``memory``/``disk`` for the tiered backend, or
        ``http``/``server``/``fallback`` for the network tier --
        ``server`` is fetched live and omitted when unreachable).
        """
        return cache_stats_dict(self.planner.profile_cache)

    @property
    def current_profile(self) -> QualityProfile:
        """Quality profile of the current flow."""
        return self.planner.evaluate_flow(self.current_flow)

    def iterate(
        self,
        on_evaluated: Callable[[AlternativeFlow], None] | None = None,
    ) -> SessionIteration:
        """Run one planning cycle on the current flow.

        ``on_evaluated`` is forwarded to :meth:`Planner.plan` -- called
        once per alternative as its profile completes, which is how the
        redesign service streams live progress for a session running
        inside its worker pool.
        """
        result = self.planner.plan(self.current_flow, on_evaluated=on_evaluated)
        iteration = SessionIteration(index=len(self.iterations) + 1, result=result)
        self.iterations.append(iteration)
        return iteration

    def execute_top_k(self, k: int = 5, repeats: int = 2, data_seed: int = 7):
        """Measured calibration on the current flow (see Planner.execute_top_k).

        Reuses the latest iteration's planning result when it was
        computed for the current flow (no re-plan, no re-simulation);
        otherwise plans first.  Returns the
        :class:`~repro.exec.measured.CalibrationReport` -- the planning
        side is recorded in :attr:`iterations` as usual.
        """
        reusable = None
        if self.iterations and self.iterations[-1].result.initial_flow is self.current_flow:
            reusable = self.iterations[-1].result
        result, report = self.planner.execute_top_k(
            self.current_flow,
            k=k,
            repeats=repeats,
            data_seed=data_seed,
            planning_result=reusable,
        )
        if reusable is None:
            self.iterations.append(
                SessionIteration(index=len(self.iterations) + 1, result=result)
            )
        return report

    def select(self, alternative: AlternativeFlow) -> ETLGraph:
        """Adopt one alternative: merge its patterns into the current flow.

        The alternative's flow already contains the grafted patterns (the
        planner "carefully merges them to the existing process"), so
        selection replaces the session's current flow with it and records
        the decision on the latest iteration.
        """
        if not self.iterations:
            raise ValueError("select() requires at least one completed iteration")
        latest = self.iterations[-1]
        if alternative not in latest.result.alternatives:
            raise ValueError("the alternative does not belong to the latest iteration")
        latest.selected = alternative
        self.current_flow = alternative.flow
        return self.current_flow

    def select_best(
        self, characteristic: QualityCharacteristic
    ) -> AlternativeFlow:
        """Select the skyline alternative maximising one characteristic."""
        if not self.iterations:
            raise ValueError("select_best() requires at least one completed iteration")
        latest = self.iterations[-1]
        pool = latest.result.skyline or latest.result.alternatives
        evaluated = [alt for alt in pool if alt.profile is not None]
        if not evaluated:
            raise ValueError("the latest iteration produced no evaluated alternatives")
        best = max(evaluated, key=lambda alt: alt.profile.score(characteristic))
        self.select(best)
        return best

    def run(
        self,
        iterations: int,
        chooser: Callable[[PlanningResult], AlternativeFlow | None] | None = None,
    ) -> ETLGraph:
        """Run several iteration cycles, selecting with ``chooser`` each time.

        ``chooser`` receives each :class:`PlanningResult` and returns the
        alternative to adopt (or ``None`` to stop early, i.e. the user
        considers the flow already satisfies the quality goals).  The
        default chooser picks the skyline flow with the best score on the
        first configured skyline characteristic.
        """
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        for _ in range(iterations):
            iteration = self.iterate()
            if chooser is not None:
                choice = chooser(iteration.result)
            else:
                pool = iteration.result.skyline or iteration.result.alternatives
                evaluated = [alt for alt in pool if alt.profile is not None]
                if not evaluated:
                    break
                primary = self.planner.configuration.skyline_characteristics[0]
                choice = max(evaluated, key=lambda alt: alt.profile.score(primary))
            if choice is None:
                break
            self.select(choice)
        return self.current_flow

    def history(self) -> list[dict[str, object]]:
        """Summaries of every completed iteration (for reports and tests)."""
        records = []
        for iteration in self.iterations:
            records.append(
                {
                    "iteration": iteration.index,
                    "alternatives": len(iteration.result.alternatives),
                    "skyline_size": len(iteration.result.skyline_indices),
                    "selected": iteration.selected.describe() if iteration.selected else None,
                }
            )
        return records
