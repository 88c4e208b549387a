"""Facade combining static and trace-based measure estimation.

The *Measures Estimation* stage of the POIESIS architecture (Fig. 3) takes
an ETL flow and produces its quality measures.  :class:`QualityEstimator`
implements that stage: it runs the runtime simulator when any requested
measure needs traces, evaluates every measure in its registry, and folds
the results into a :class:`~repro.quality.composite.QualityProfile`.

Because the alternative space is factorial in the flow size (Section 2.2)
and the iterative redesign loop revisits structurally identical flows
across session iterations, estimation is memoizable: a cache backend
(see :mod:`repro.cache`) keyed by a content fingerprint of the flow
(structure plus operation properties plus graph annotations plus the
estimation settings) lets a planner or a whole
:class:`~repro.core.session.RedesignSession` skip re-simulating flows it
has already profiled -- and, with a disk-backed tier, lets *separate
runs and parallel sessions* share profiles.  Every tier keeps hit/miss
statistics so benchmarks can report the savings.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.cache import CACHE_SCHEMA_VERSION, CacheBackend
from repro.etl.graph import ETLGraph
from repro.quality.composite import QualityProfile, build_composites
from repro.quality.framework import MeasureRegistry, MeasureValue, default_registry
from repro.simulator.engine import ETLSimulator, SimulationConfig, SimulationMemo
from repro.simulator.resources import ResourceModel
from repro.simulator.traces import TraceArchive


@dataclass(frozen=True)
class EstimationSettings:
    """Settings controlling how quality profiles are estimated.

    Attributes
    ----------
    simulation_runs:
        Number of simulated executions used for trace-based measures.
    seed:
        Random seed forwarded to the simulator (estimates are deterministic
        for a given seed).
    resources:
        Default execution environment for the simulations.
    use_simulation:
        When false, only static (structure-based) measures are evaluated;
        useful for cheap screening of very large alternative spaces (the
        planner's ``screening_beam`` first phase).

    Settings are frozen: every cache key an estimator hands out encodes
    them once, at construction.
    """

    simulation_runs: int = 5
    seed: int | None = 7
    resources: ResourceModel | None = None
    use_simulation: bool = True

    def __post_init__(self) -> None:
        if self.simulation_runs < 1:
            raise ValueError(f"simulation_runs must be at least 1, got {self.simulation_runs}")

    def fingerprint(self) -> tuple:
        """A hashable identity of everything that influences the estimates."""
        resources = self.resources
        resource_key = (
            None
            if resources is None
            else (resources.workers, resources.speed, resources.cost_per_hour, resources.memory_mb)
        )
        return (self.simulation_runs, self.seed, self.use_simulation, resource_key)


class QualityEstimator:
    """Evaluates the quality profile of ETL flows.

    Parameters
    ----------
    registry:
        The measures to evaluate; defaults to the Fig. 1-style registry.
    settings:
        Simulation budget, seed, resources and the static-only switch.
    cache:
        Optional shared cache backend (any
        :class:`~repro.cache.CacheBackend` tier: the in-memory
        :class:`~repro.cache.ProfileCache`, a persistent
        :class:`~repro.cache.DiskProfileCache`, or the
        :class:`~repro.cache.TieredProfileCache` composite).  When set,
        :meth:`evaluate` memoizes profiles by flow fingerprint +
        settings fingerprint, so re-evaluating a structurally identical
        flow (e.g. in a later session iteration, a re-plan, or -- with a
        disk-backed tier -- a whole separate run) costs a lookup instead
        of a simulation campaign.

    Inside :meth:`shared_simulation` -- one plan's evaluation stream --
    every flow is simulated against one
    :class:`~repro.simulator.engine.SimulationMemo`, so the operation
    states the alternatives share are propagated once.  The memo is
    dropped when the last open scope closes and is safe to share between
    threads calling one estimator.
    """

    def __init__(
        self,
        registry: MeasureRegistry | None = None,
        settings: EstimationSettings | None = None,
        cache: CacheBackend | None = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.settings = settings or EstimationSettings()
        self.cache = cache
        self._composites = build_composites(self.registry)
        # Every cache key is the SHA-256 of ``repr((CACHE_SCHEMA_VERSION,
        # flow.fingerprint(), settings, registry))``.  The settings and the
        # registry are fixed for this estimator, so the tail of that text
        # is encoded once here.
        registry = tuple(
            sorted((m.name, m.weight, m.requires_trace) for m in self.registry)
        )
        self._key_tail = f", {self.settings.fingerprint()!r}, {registry!r})".encode("utf-8")
        self._simulation = SimulationConfig(
            runs=self.settings.simulation_runs,
            seed=self.settings.seed,
            resources=self.settings.resources or ResourceModel(),
        )
        self._memo_lock = threading.Lock()
        self._memo: SimulationMemo | None = None
        self._memo_scopes = 0

    # ------------------------------------------------------------------

    @contextmanager
    def shared_simulation(self) -> Iterator[None]:
        """Simulate every flow inside the block against one shared memo.

        Scopes nest and may overlap across threads: the memo is created
        by the first open scope and dropped when the last one closes.
        """
        with self._memo_lock:
            if not self._memo_scopes:
                self._memo = SimulationMemo()
            self._memo_scopes += 1
        try:
            yield
        finally:
            with self._memo_lock:
                self._memo_scopes -= 1
                if not self._memo_scopes:
                    self._memo = None

    def simulate(self, flow: ETLGraph) -> TraceArchive:
        """Run the simulator for one flow and return its trace archive."""
        return ETLSimulator(flow, self._simulation, memo=self._memo).run()

    # ------------------------------------------------------------------
    # Cache plumbing (also used by ParallelEvaluator, which resolves a
    # whole window of keys in one batched lookup)
    # ------------------------------------------------------------------

    def cache_key(self, flow: ETLGraph) -> str:
        """The memoization key of ``flow`` under the current settings.

        A 64-character lowercase hex SHA-256 over the cache schema
        version, the flow content, the estimation settings and the
        measure registry, so estimators with different registries can
        safely share one cache, and every tier, the wire and the shard
        ring use it as is.  The flow part is :meth:`ETLGraph.fingerprint`,
        merged incrementally from a copy parent's: every change to a flow
        goes through the graph API (operations are frozen values), so a
        changed flow always gets a fresh key (a cache miss), never a
        stale profile.  The settings and registry parts are encoded once,
        at construction: settings are frozen, and the registry is fixed
        for the estimator's lifetime.
        """
        head = f"({CACHE_SCHEMA_VERSION!r}, {flow.fingerprint()!r}".encode("utf-8")
        return hashlib.sha256(head + self._key_tail).hexdigest()

    def cached_profile(
        self, flow: ETLGraph, key: str | None = None
    ) -> QualityProfile | None:
        """A cached profile for ``flow``, re-labelled with the flow's name.

        Returns ``None`` when no cache is configured or the flow has not
        been profiled yet.  The returned profile is a shallow copy so that
        callers mutating scores/values do not corrupt the memo.  Pass a
        pre-computed ``key`` to avoid fingerprinting the flow twice.
        """
        if self.cache is None:
            return None
        hit = self.cache.get(key if key is not None else self.cache_key(flow))
        if hit is None:
            return None
        return QualityProfile(
            flow_name=flow.name, scores=dict(hit.scores), values=dict(hit.values)
        )

    def store_profile(
        self, flow: ETLGraph, profile: QualityProfile, key: str | None = None
    ) -> None:
        """Memoize an evaluated profile (no-op without a cache).

        A shallow snapshot is stored, so callers mutating the profile they
        were handed cannot corrupt the memo.
        """
        if self.cache is not None:
            snapshot = QualityProfile(
                flow_name=profile.flow_name,
                scores=dict(profile.scores),
                values=dict(profile.values),
            )
            self.cache.put(key if key is not None else self.cache_key(flow), snapshot)

    # ------------------------------------------------------------------

    def evaluate(self, flow: ETLGraph, archive: TraceArchive | None = None) -> QualityProfile:
        """Evaluate every registered measure for ``flow``.

        Parameters
        ----------
        flow:
            The flow to evaluate.
        archive:
            Optional pre-computed trace archive; when omitted and any
            registered measure requires traces (and simulation is
            enabled), the flow is simulated first.  Passing an explicit
            archive bypasses the profile cache.
        """
        key: str | None = None
        if archive is None and self.cache is not None:
            key = self.cache_key(flow)
            cached = self.cached_profile(flow, key)
            if cached is not None:
                return cached
        profile = self.evaluate_uncached(flow, archive)
        if key is not None:
            self.store_profile(flow, profile, key)
        return profile

    def evaluate_uncached(
        self, flow: ETLGraph, archive: TraceArchive | None = None
    ) -> QualityProfile:
        """The raw Measures Estimation stage, never touching the cache."""
        needs_trace = any(m.requires_trace for m in self.registry)
        if archive is None and needs_trace and self.settings.use_simulation:
            archive = self.simulate(flow)

        values: dict[str, MeasureValue] = {}
        for measure in self.registry:
            if measure.requires_trace and archive is None:
                continue
            values[measure.name] = measure.evaluate(flow, archive)

        profile = QualityProfile(flow_name=flow.name, values=values)
        for characteristic, composite in self._composites.items():
            profile.scores[characteristic] = composite.score(values)
        return profile
