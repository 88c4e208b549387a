"""User-defined processing configurations of the planner.

POIESIS takes as input an initial ETL flow *and user-defined
configurations*: which Flow Component Patterns can be considered in the
palette, which deployment policy to follow, the prioritisation of quality
goals, and constraints based on estimated measures (Sections 3 and 4, demo
part P2).  :class:`ProcessingConfiguration` bundles those choices.

Performance tuning
------------------

The alternative space is factorial in the flow size, so generation
always applies patterns as deltas on shared flow copies and reuses the shared
prefix of consecutive pattern combinations (see
:mod:`repro.core.alternatives`), and the planner always memoizes quality
profiles by flow fingerprint across re-plans and session iterations.
The remaining scaling knobs change wall-clock, never results:

``eval_batch_size``
    The evaluation window: how many candidates the streaming evaluator
    pulls from the generator at a time.  A window is one batched cache
    lookup (one ``get_many``: a single round-trip per shard on a cache
    ring) and the scope of the evaluator's duplicate memo.  Evaluation
    runs on the calling thread, so nothing overlaps; concurrency comes
    from the fleet's planner workers (:mod:`repro.fleet`).
``cache_dir`` / ``cache_urls``
    Where those memoized profiles live -- the tier follows from what is
    set.  Neither: the in-process LRU (the default).  ``cache_dir``:
    memory in front of a persistent directory shared across runs and
    parallel sessions, so a warm ``cache_dir`` makes a re-run mostly
    I/O-bound (``cache_max_bytes`` caps the directory).  ``cache_urls``:
    a consistent-hash ring over one or more
    :class:`repro.service.CacheServer` shards, so a fleet of machines
    shares one profile store without a common filesystem; each shard
    client degrades to a local in-memory tier when its server is
    unreachable and recovers on its own, never failing a plan
    (``cache_timeout`` is the per-request budget, ``cache_auth_token``
    the shared bearer token).  See ``docs/caching.md`` and
    ``docs/fleet.md``.
``metrics_registry``
    Observability of one planning campaign: when set, the planner, the
    evaluator and every cache tier record phase spans, latency
    histograms and hit/miss counters into that
    :class:`repro.obs.MetricsRegistry` (for example the process-wide
    :func:`repro.obs.default_registry`).  Results are byte-identical
    with metrics on or off; the measured overhead budget is <= 3% of a
    warm campaign (``benchmarks/bench_obs.py``).  See
    ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.quality.composite import QualityProfile
from repro.quality.framework import QualityCharacteristic

#: Default evaluation window, shared by ``ProcessingConfiguration`` and
#: :meth:`repro.core.evaluator.ParallelEvaluator.evaluate_stream`.  Large
#: enough that a small plan (the initial flow plus a budget-1 palette's
#: ~25 candidates) is one batched lookup: one round trip per shard.
DEFAULT_EVAL_BATCH_SIZE = 64


@dataclass(frozen=True)
class MeasureConstraint:
    """A hard constraint on an estimated measure or characteristic score.

    Alternatives violating a constraint are discarded before the skyline
    is computed, implementing the "set of constraints based on estimated
    measures" the user can configure.

    Attributes
    ----------
    target:
        Either a measure name (e.g. ``"process_cycle_time_ms"``) or a
        characteristic name (e.g. ``"performance"``); characteristic names
        are matched against composite scores.
    min_value / max_value:
        Inclusive bounds on the raw measure value (or composite score).
        ``None`` means unbounded on that side.
    """

    target: str
    min_value: float | None = None
    max_value: float | None = None

    def is_satisfied_by(self, profile: QualityProfile) -> bool:
        """Whether a quality profile satisfies this constraint."""
        value = self._resolve(profile)
        if value is None:
            # Constraints on measures that were not evaluated do not
            # eliminate the alternative; they are simply not checkable.
            return True
        if self.min_value is not None and value < self.min_value:
            return False
        if self.max_value is not None and value > self.max_value:
            return False
        return True

    def _resolve(self, profile: QualityProfile) -> float | None:
        table = profile.table
        if self.target in table.index:
            return profile.raw_values[table.index[self.target]]
        try:
            characteristic = QualityCharacteristic(self.target)
        except ValueError:
            return None
        position = table.composite_index.get(characteristic)
        return None if position is None else profile.composite_scores[position]


@dataclass
class ProcessingConfiguration:
    """The processing parameters of one planning run.

    Attributes
    ----------
    pattern_names:
        Restriction of the palette to these patterns; ``()`` means the
        whole palette is used (demo part P2).
    policy:
        Name of the deployment policy (``"heuristic"``, ``"exhaustive"``,
        ``"random"`` or ``"goal_driven"``).
    pattern_budget:
        Maximum number of FCP applications combined in one alternative
        flow (the process "can be repeated an arbitrary number of times";
        the budget bounds the combinatorial explosion).
    max_points_per_pattern:
        Upper bound on the number of application points considered per
        pattern by non-exhaustive policies.
    max_alternatives:
        Upper bound on the number of alternative flows generated.
    goal_priorities:
        Relative priority of each quality characteristic, used by the
        goal-driven policy and reported in session summaries.
    constraints:
        Hard constraints on estimated measures.
    skyline_characteristics:
        The quality dimensions of the scatter plot / Pareto frontier.
    simulation_runs / seed:
        Passed to the quality estimator's simulator.
    eval_batch_size:
        Size of the evaluation window: candidates are pulled from the
        generator, looked up in the cache (one ``get_many`` per window)
        and deduplicated this many at a time.  Memory stays proportional
        to the window; nothing overlaps, evaluation runs on the planning
        thread.
    cache_dir:
        Directory of a persistent profile store, fronted by an
        in-process LRU that promotes disk hits.  Point several planners
        at one directory to share profiles between them; entries are
        self-verifying, so a stale or damaged directory degrades to a
        cold cache, never to wrong results.  Mutually exclusive with
        ``cache_urls``.
    cache_max_bytes:
        Optional size cap on the ``cache_dir`` store; least-recently-used
        entries are evicted once the total entry size exceeds it.
        ``None`` (the default) means unbounded.  Requires ``cache_dir``
        (a cache server owns its own eviction).
    cache_timeout:
        Per-request budget of each ``cache_urls`` shard client, in
        seconds.  A request exceeding it counts as a server failure and
        triggers that shard's local fallback.
    cache_auth_token:
        Shared token of authenticated cache servers (their
        ``--auth-token``), sent as ``Authorization: Bearer <token>``.
        A rejected token raises
        :class:`repro.cache.http.CacheAuthError` instead of silently
        degrading.  Requires ``cache_urls``.
    cache_urls:
        Base URLs of one or more :class:`repro.service.CacheServer`
        shards, e.g. ``("http://shard0:8731", "http://shard1:8731")``;
        a single URL is a one-shard ring.  Routing is a pure function
        of this *set* (order does not matter), so every planner and
        worker configured with the same URLs agrees on placement with
        no coordination.  An unreachable shard degrades *alone* to a
        local fallback and recovers without touching live shards.  See
        ``docs/fleet.md``.
    metrics_registry:
        When set, the planner and everything it drives (evaluator,
        cache tiers, wire client) record latency histograms, phase
        spans and hit/miss counters into this
        :class:`repro.obs.MetricsRegistry`; the ``GET /metrics``
        endpoints and ``tools/obs.py`` dashboard read them back.
        ``None`` (the default) is off -- the disabled path costs one
        ``None`` check per instrumentation site, and results are
        byte-identical either way.  Not part of the service request
        schema: a request sends ``"metrics_enabled": true`` and the
        planning worker supplies its registry.  See
        ``docs/observability.md``.
    """

    pattern_names: tuple[str, ...] = ()
    policy: str = "heuristic"
    pattern_budget: int = 2
    max_points_per_pattern: int = 4
    max_alternatives: int = 2000
    goal_priorities: Mapping[QualityCharacteristic, float] = field(default_factory=dict)
    constraints: tuple[MeasureConstraint, ...] = ()
    skyline_characteristics: tuple[QualityCharacteristic, ...] = (
        QualityCharacteristic.PERFORMANCE,
        QualityCharacteristic.DATA_QUALITY,
        QualityCharacteristic.RELIABILITY,
    )
    simulation_runs: int = 3
    seed: int = 7
    eval_batch_size: int = DEFAULT_EVAL_BATCH_SIZE
    cache_dir: str | None = None
    cache_max_bytes: int | None = None
    cache_timeout: float = 5.0
    cache_auth_token: str | None = None
    cache_urls: tuple[str, ...] | None = None
    metrics_registry: object | None = None

    def __post_init__(self) -> None:
        if self.metrics_registry is not None:
            for required in ("counter", "histogram", "snapshot"):
                if not callable(getattr(self.metrics_registry, required, None)):
                    raise ValueError(
                        "metrics_registry must be a repro.obs.MetricsRegistry "
                        f"(missing {required!r})"
                    )
        if self.pattern_budget < 1:
            raise ValueError("pattern_budget must be at least 1")
        if self.max_points_per_pattern < 1:
            raise ValueError("max_points_per_pattern must be at least 1")
        if self.max_alternatives < 1:
            raise ValueError("max_alternatives must be at least 1")
        if self.simulation_runs < 1:
            raise ValueError("simulation_runs must be at least 1")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be at least 1")
        if self.cache_urls is not None:
            if not self.cache_urls:
                raise ValueError("cache_urls needs at least one shard URL (or None)")
            if not all(isinstance(url, str) and url for url in self.cache_urls):
                raise ValueError("cache_urls entries must be non-empty strings")
            if len(set(self.cache_urls)) != len(tuple(self.cache_urls)):
                raise ValueError(f"cache_urls contains duplicates: {self.cache_urls!r}")
            if self.cache_dir is not None:
                raise ValueError(
                    "cache_dir and cache_urls are mutually exclusive -- the cache "
                    "servers own the store; point a server at the directory instead"
                )
        if self.cache_timeout <= 0:
            raise ValueError("cache_timeout must be positive (seconds)")
        if self.cache_auth_token is not None:
            if not self.cache_auth_token:
                raise ValueError("cache_auth_token must be a non-empty string (or None)")
            if self.cache_urls is None:
                raise ValueError("cache_auth_token requires cache_urls (the cache servers)")
        if self.cache_max_bytes is not None:
            if self.cache_max_bytes < 1:
                raise ValueError("cache_max_bytes must be at least 1 (or None for unbounded)")
            if self.cache_dir is None:
                raise ValueError(
                    "cache_max_bytes requires cache_dir (a cache server owns its "
                    "own eviction)"
                )

    def prioritized_characteristics(self) -> list[QualityCharacteristic]:
        """Characteristics ordered by decreasing user priority."""
        if not self.goal_priorities:
            return list(self.skyline_characteristics)
        return [
            characteristic
            for characteristic, _ in sorted(
                self.goal_priorities.items(), key=lambda item: item[1], reverse=True
            )
        ]

    def satisfies_constraints(self, profile: QualityProfile) -> bool:
        """Whether a profile satisfies every configured constraint."""
        return all(constraint.is_satisfied_by(profile) for constraint in self.constraints)
