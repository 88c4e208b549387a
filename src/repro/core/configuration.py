"""User-defined processing configurations of the planner.

POIESIS takes as input an initial ETL flow *and user-defined
configurations*: which Flow Component Patterns can be considered in the
palette, which deployment policy to follow, the prioritisation of quality
goals, and constraints based on estimated measures (Sections 3 and 4, demo
part P2).  :class:`ProcessingConfiguration` bundles those choices.

Performance tuning
------------------

The alternative space is factorial in the flow size, so generation
always applies patterns as copy-on-write deltas and reuses the shared
prefix of consecutive pattern combinations (see
:mod:`repro.core.alternatives`).  The remaining scaling knobs change
wall-clock, never results (except ``screening_beam``, which deliberately
prunes):

``parallel_workers`` / ``eval_batch_size``
    Size of the evaluation pool and the bounded in-flight window of the
    streaming evaluator: one worker evaluates sequentially on the calling
    thread; more run a process pool, so generation and the pure-Python
    simulator genuinely overlap within the window while memory stays
    flat.  Flows cross the process boundary by pickle; copy-on-write
    graphs materialize their shared payloads when pickled, so workers
    always receive self-contained flows.
``screening_beam``
    Two-phase planning: score every candidate statically, simulate
    only the top ``screening_beam`` survivors.
``cache_profiles``
    Memoize quality profiles by flow fingerprint across re-plans and
    session iterations.
``cache_tier`` / ``cache_dir`` / ``cache_max_bytes``
    Which cache backend holds those memoized profiles: the in-process
    LRU (``"memory"``, the default), a persistent directory shared
    across runs and parallel sessions (``"disk"``), memory over disk
    with promotion (``"tiered"``), or a shared network cache service
    (``"http"``).  Disk-backed tiers amortize simulation work across
    *processes*: a warm ``cache_dir`` makes a re-run mostly I/O-bound.
    See ``docs/caching.md``.
``cache_url`` / ``cache_timeout``
    Address and per-request budget of the network tier
    (``cache_tier="http"``): a :class:`repro.service.CacheServer` lets a
    fleet of machines share one profile store without a common
    filesystem.  The client degrades gracefully -- an unreachable
    server is logged once and the plan falls back to a local in-memory
    tier, never failing.  See ``docs/service.md``.
``cache_compression`` / ``cache_auth_token`` / ``cache_recovery_interval`` / ``cache_max_pending``
    Wire-path behaviour of the ``"http"`` tier: transparent gzip of
    large bodies, the shared bearer token of an authenticated server, a
    degraded client's recovery-probe cadence (exponential backoff; the
    client re-attaches and republishes its fallback writes when the
    server returns), and the auto-publish bound on the client-side
    write buffer.
``cache_urls`` / ``fleet_ring_replicas``
    The scale-out cache tier (``cache_tier="sharded"``): the shard
    server URLs of a consistent-hash ring partitioning the profile
    store, and the ring's virtual points per shard.  Each shard is a
    full ``"http"`` client, so every wire knob above applies per shard.
    See ``docs/fleet.md``.
``metrics_enabled`` / ``metrics_registry``
    Observability of one planning campaign: when on, the planner, the
    parallel evaluator and every cache tier record phase spans, latency
    histograms and hit/miss counters into a
    :class:`repro.obs.MetricsRegistry` (the process-wide default, or an
    explicit one via ``metrics_registry``).  Results are byte-identical
    with metrics on or off; the measured overhead budget is <= 3% of a
    warm campaign (``benchmarks/bench_obs.py``).  See
    ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cache import CACHE_TIERS

#: Default virtual points per shard on the ``"sharded"`` tier's hash
#: ring.  Kept in sync with :data:`repro.fleet.ring.DEFAULT_REPLICAS`
#: (not imported: ``repro.fleet`` imports the planner, which imports
#: this module -- a cycle at import time).
DEFAULT_RING_REPLICAS = 96

from repro.quality.composite import QualityProfile
from repro.quality.framework import QualityCharacteristic


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
        if self.target in profile.values:
            return profile.values[self.target].value
        try:
            characteristic = QualityCharacteristic(self.target)
        except ValueError:
            return None
        if characteristic in profile.scores:
            return profile.scores[characteristic]
        return None


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
    parallel_workers:
        Number of workers used for concurrent measure estimation (the
        reproduction's substitute for the paper's cloud nodes): ``1``
        (the default) evaluates sequentially, more run a process pool.
    screening_beam:
        When set, planning runs in two phases: every generated candidate
        is first scored with cheap *static-only* estimation (no
        simulation), and only the top ``screening_beam`` survivors receive
        the full simulated profile.  ``None`` (the default) disables
        screening and reproduces the exhaustive single-phase behaviour.
    eval_batch_size:
        Upper bound on in-flight submissions while streaming candidates
        through the parallel evaluator; generation and estimation overlap
        within this window.
    cache_profiles:
        When true (the default) the planner memoizes quality profiles by
        flow fingerprint, so structurally identical flows -- within one
        run or across the iterations of a redesign session -- are
        simulated only once.
    cache_tier:
        Which cache backend holds the memoized profiles (requires
        ``cache_profiles=True`` to matter): ``"memory"`` (default, the
        in-process LRU -- dies with the process), ``"disk"`` (a
        persistent store under ``cache_dir``, shared across runs and
        concurrent sessions), ``"tiered"`` (memory in front of disk,
        promoting disk hits -- the best of both for repeated runs) or
        ``"http"`` (a client onto a shared
        :class:`repro.service.CacheServer` at ``cache_url`` -- profiles
        shared across *machines*, no common filesystem needed) or
        ``"sharded"`` (a consistent-hash ring of ``"http"`` clients
        partitioning the store across the ``cache_urls`` shard servers;
        see ``docs/fleet.md``).
    cache_dir:
        Directory of the persistent profile store; required by (and only
        meaningful for) the ``"disk"`` and ``"tiered"`` cache tiers.
        Point several planners at one directory to share profiles
        between them; entries are self-verifying, so a stale or damaged
        directory degrades to a cold cache, never to wrong results.
    cache_max_bytes:
        Optional size cap on the on-disk profile store;
        least-recently-used entries are evicted once the total entry
        size exceeds it.  ``None`` (the default) means unbounded.
        Meaningless for the ``"http"`` tier, whose *server* owns
        eviction.
    cache_url:
        Base URL of the shared cache service, required by (and only
        valid for) ``cache_tier="http"`` -- e.g.
        ``"http://cache-host:8731"``, typically a
        ``tools/serve.py cache`` process fronting one ``cache_dir`` for
        a whole fleet.  An unreachable server degrades the tier to
        local memory (logged once); it never fails a plan.
    cache_timeout:
        Per-request budget of the ``"http"`` cache client, in seconds.
        A request exceeding it counts as a server failure and triggers
        the local fallback.
    cache_compression:
        Whether the ``"http"`` client gzip-compresses large request
        bodies and accepts compressed responses (default ``True``;
        profile documents compress several-fold).  ``False`` reproduces
        the uncompressed wire protocol.
    cache_auth_token:
        Shared token of an authenticated cache server (its
        ``--auth-token``), sent as ``Authorization: Bearer <token>``.
        A rejected token raises
        :class:`repro.cache.http.CacheAuthError` instead of silently
        degrading.  Only valid with ``cache_tier="http"``.
    cache_recovery_interval:
        Seconds before a degraded ``"http"`` client's first recovery
        probe; the delay doubles per failed probe (capped at 16x).  On
        success the client re-attaches and republishes what the local
        fallback accumulated.  ``None`` disables probing (degradation
        lasts for the process).
    cache_max_pending:
        The ``"http"`` client's write buffer auto-publishes once it
        holds this many entries, bounding client memory on campaigns
        that never flush.
    cache_urls:
        The shard-server base URLs of the ``"sharded"`` tier (required
        by and only valid for it) -- one
        :class:`repro.service.CacheServer` per entry, e.g.
        ``("http://shard0:8731", "http://shard1:8731")``.  Routing is a
        pure function of this *set* (order does not matter), so every
        planner and worker configured with the same URLs agrees on
        placement with no coordination.  Wire knobs (``cache_timeout``,
        ``cache_compression``, ``cache_auth_token``,
        ``cache_recovery_interval``, ``cache_max_pending``) apply to
        each shard client; an unreachable shard degrades *alone* to a
        local fallback and recovers without touching live shards.
    fleet_ring_replicas:
        Virtual points per shard on the consistent-hash ring (the
        ``"sharded"`` tier).  More points smooth the partition; the
        default keeps the busiest of four shards well within 2x of the
        ideal quarter.  Must be identical across a fleet -- it changes
        placement.
    metrics_enabled:
        When true, the planner and everything it drives (evaluator,
        cache tiers, wire client) record latency histograms, phase
        spans and hit/miss counters into a metrics registry; the
        ``GET /metrics`` endpoints and ``tools/obs.py`` dashboard read
        them back.  Off by default -- the disabled path costs one
        ``None`` check per instrumentation site, and results are
        byte-identical either way.  See ``docs/observability.md``.
    metrics_registry:
        The :class:`repro.obs.MetricsRegistry` to record into when
        ``metrics_enabled`` is set; ``None`` (the default) uses the
        process-wide default registry
        (:func:`repro.obs.default_registry`).  Not part of the service
        request schema -- servers inject their own registry, a client
        cannot pick one over the wire.
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
    parallel_workers: int = 1
    screening_beam: int | None = None
    eval_batch_size: int = 16
    cache_profiles: bool = True
    cache_tier: str = "memory"
    cache_dir: str | None = None
    cache_max_bytes: int | None = None
    cache_url: str | None = None
    cache_timeout: float = 5.0
    cache_compression: bool = True
    cache_auth_token: str | None = None
    cache_recovery_interval: float | None = 5.0
    cache_max_pending: int = 1024
    cache_urls: tuple[str, ...] | None = None
    fleet_ring_replicas: int = DEFAULT_RING_REPLICAS
    metrics_enabled: bool = False
    metrics_registry: object | None = None

    def __post_init__(self) -> None:
        if self.metrics_registry is not None:
            if not self.metrics_enabled:
                raise ValueError("metrics_registry requires metrics_enabled=True")
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
        if self.parallel_workers < 1:
            raise ValueError("parallel_workers must be at least 1")
        if self.screening_beam is not None and self.screening_beam < 1:
            raise ValueError("screening_beam must be at least 1 (or None to disable)")
        if self.eval_batch_size < 1:
            raise ValueError("eval_batch_size must be at least 1")
        if self.cache_tier not in CACHE_TIERS:
            raise ValueError(
                f"unknown cache_tier: {self.cache_tier!r} (use one of {CACHE_TIERS})"
            )
        if self.cache_tier in ("disk", "tiered") and self.cache_dir is None:
            raise ValueError(f"cache_tier={self.cache_tier!r} requires a cache_dir")
        if self.cache_tier == "http" and self.cache_url is None:
            raise ValueError('cache_tier="http" requires a cache_url')
        if self.cache_tier in ("http", "sharded") and self.cache_dir is not None:
            raise ValueError(
                f"cache_dir does not apply to cache_tier={self.cache_tier!r} -- the "
                "cache server owns the store; point the server at the directory instead"
            )
        if self.cache_url is not None and self.cache_tier != "http":
            raise ValueError(
                'cache_url only applies to cache_tier="http" '
                f"(got cache_tier={self.cache_tier!r}; "
                'the "sharded" tier takes cache_urls, plural)'
            )
        if self.cache_tier == "sharded":
            if not self.cache_urls:
                raise ValueError(
                    'cache_tier="sharded" requires cache_urls (the shard server URLs)'
                )
            if not all(isinstance(url, str) and url for url in self.cache_urls):
                raise ValueError("cache_urls entries must be non-empty strings")
            if len(set(self.cache_urls)) != len(tuple(self.cache_urls)):
                raise ValueError(f"cache_urls contains duplicates: {self.cache_urls!r}")
        elif self.cache_urls is not None:
            raise ValueError(
                'cache_urls only applies to cache_tier="sharded" '
                f"(got cache_tier={self.cache_tier!r})"
            )
        if self.fleet_ring_replicas < 1:
            raise ValueError("fleet_ring_replicas must be at least 1")
        if self.cache_timeout <= 0:
            raise ValueError("cache_timeout must be positive (seconds)")
        if self.cache_auth_token is not None:
            if not self.cache_auth_token:
                raise ValueError("cache_auth_token must be a non-empty string (or None)")
            if self.cache_tier not in ("http", "sharded"):
                raise ValueError(
                    "cache_auth_token only applies to the network cache tiers "
                    f"('http' or 'sharded'; got cache_tier={self.cache_tier!r})"
                )
        if self.cache_recovery_interval is not None and self.cache_recovery_interval <= 0:
            raise ValueError(
                "cache_recovery_interval must be positive seconds (or None to disable)"
            )
        if self.cache_max_pending < 1:
            raise ValueError("cache_max_pending must be at least 1")
        if self.cache_max_bytes is not None:
            if self.cache_max_bytes < 1:
                raise ValueError("cache_max_bytes must be at least 1 (or None for unbounded)")
            if self.cache_tier not in ("disk", "tiered"):
                raise ValueError(
                    "cache_max_bytes only applies to the disk-backed cache tiers "
                    "('disk' or 'tiered'); the 'http' tier's server owns eviction"
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
