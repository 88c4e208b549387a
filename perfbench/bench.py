"""The benchmark's workloads; started by ``run.py`` in a fresh interpreter.

Three closed-loop workloads, each run from this one process:

``cold_plan``
    One caller.  Each plan uses a fresh ``Planner`` (empty profile
    cache), so every alternative is simulated and written to the cache.
``warm_replan``
    One caller re-planning a flow whose ``RedesignSession`` was primed by
    one untimed plan: every profile is a cache hit, nothing is simulated.
``service_jobs``
    One caller alternates two ``RedesignClient``s against a
    ``RedesignServer(workers=2)`` whose cache is a ring over two
    in-process ``CacheServer`` shards, one job at a time; small jobs are
    drawn with repeats, so one client reads profiles the other wrote.

The workload seed draws the order of the plans (for ``warm_replan``
the flow, for ``service_jobs`` the job sequence); the pools themselves
are fixed, so every plan can be checked against a recorded reference
(``reference.py``).  With ``--trace 1`` the timed phase is split into an
untraced and a traced half and only per-layer metrics are printed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from functools import partial
from typing import Any, Callable

#: Planner configuration of each workload: only these knobs are ever set,
#: so a change to any other default is measured by the benchmark unchanged.
COLD_CONFIG = {
    "pattern_budget": 2,
    "max_points_per_pattern": 4,
    "max_alternatives": 2000,
    "simulation_runs": 3,
    "seed": 7,
}
WARM_CONFIG = {
    "pattern_budget": 3,
    "max_points_per_pattern": 4,
    "max_alternatives": 1000,
    # Re-plans never simulate; one run keeps the priming plan short.
    "simulation_runs": 1,
    "seed": 7,
}
SERVICE_CONFIG = {
    "pattern_budget": 1,
    "max_points_per_pattern": 4,
    "max_alternatives": 2000,
    "simulation_runs": 3,
}

COLD_POOL = (
    "tpch_refresh",
    "tpcds_sales",
    "purchases",
    "random16s1",
    "random24s2",
    "random32s3",
    "random40s4",
)
#: TPC-H at three scales: the same structure, so the same alternatives to
#: generate, fingerprint and rank, whichever the seed draws (TPC-DS
#: re-plans run about 13% faster, which would show as run-to-run spread).
WARM_POOL = ("tpch_refresh", "tpch_refresh_half", "tpch_refresh_double")
#: A service job is (flow, simulation seed); this maps each pool flow to
#: its seeds per round.  Round ``r`` plans a flow of ``n`` seeds under
#: seeds ``n*r + 1`` .. ``n*r + n``, each job twice, so every round holds
#: the same mix of first plans (cache writes) and repeats (cache reads).
#: The heaviest jobs, first plans of ``random16s8``, are 2 of a round's
#: 12, so the p90 falls inside their cluster rather than on the gap
#: below it.  References cover ``SERVICE_ROUNDS`` rounds; a longer run
#: starts over at round 0.
SERVICE_POOL = {"purchases": 1, "random8s5": 1, "random10s6": 1, "random12s7": 1, "random16s8": 2}
SERVICE_ROUNDS = 16

#: ``RedesignClient.wait`` polls at this fixed interval (floor = cap), so
#: a job's latency is not rounded up to a doubling backoff step.
POLL_INTERVAL_S = 0.01
#: The clients take turns from one caller thread.  Client and server
#: share one interpreter, so a second caller thread adds no throughput,
#: only lock contention that spread the p90 by a quarter between runs.
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2
CACHE_SHARDS = 2
JOB_TIMEOUT_S = 60.0

#: Set-up is repeated this many times per run; ``setup_s`` is the import
#: time plus the median set-up.
SETUP_ROUNDS = 3

#: Every run does a fixed amount of work, so each run -- on any commit --
#: plans the same mix and its percentiles mean the same thing.
#: ``--seconds`` sets the number of work units at these nominal unit
#: durations, measured on a shared 2-core x86 VM: a round of the cold
#: pool, one warm re-plan.  A round of 12 service jobs takes about 3 s;
#: its nominal 2.2 s makes a 20-second run 9 rounds, 108 jobs, so the
#: p90 has ten samples beyond it.
COLD_ROUND_S = 10.0
WARM_PLAN_S = 3.0
SERVICE_ROUND_S = 2.2

#: A seed kept out of tuning: claims must also hold on it.
HELD_OUT_SEED = 9001


def flow_catalog(workloads: Any) -> dict[str, Callable]:
    """Every flow a pool can name, as zero-argument builders."""

    def generated(operations: int, seed: int, sources: int = 3) -> Callable:
        config = workloads.RandomFlowConfig(operations=operations, seed=seed, sources=sources)
        return partial(workloads.random_flow, config)

    return {
        "tpch_refresh": workloads.tpch_refresh_flow,
        "tpch_refresh_half": partial(workloads.tpch_refresh_flow, scale=0.5),
        "tpch_refresh_double": partial(workloads.tpch_refresh_flow, scale=2.0),
        "tpcds_sales": workloads.tpcds_sales_flow,
        "purchases": workloads.purchases_flow,
        "random16s1": generated(16, 1),
        "random24s2": generated(24, 2),
        "random32s3": generated(32, 3),
        "random40s4": generated(40, 4),
        "random8s5": generated(8, 5, sources=2),
        "random10s6": generated(10, 6, sources=2),
        "random12s7": generated(12, 7, sources=2),
        "random16s8": generated(16, 8, sources=2),
    }


def service_jobs(round_index: int) -> list[tuple[str, int]]:
    """The distinct (flow, seed) jobs of one round of ``service_jobs``."""
    return [
        (key, seed)
        for key, seeds in SERVICE_POOL.items()
        for seed in range(seeds * round_index + 1, seeds * round_index + seeds + 1)
    ]


class Samples:
    """Per-plan latencies and outcomes."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []

    def add(self, seconds: float, problems: list[str]) -> None:
        self.latencies.append(seconds)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems[:3])


def _describe(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


class ColdPlan:
    name = "cold_plan"
    pool = COLD_POOL
    unit_seconds = COLD_ROUND_S
    server = None

    def __init__(self, repro: Any, references: dict) -> None:
        self.repro = repro
        self.references = references

    def setup(self, seed: int) -> None:
        catalog = flow_catalog(self.repro.workloads)
        self.flows = {key: catalog[key]() for key in self.pool}

    def caches(self) -> list:
        return []

    def plan(self, key: str) -> Any:
        """One timed plan: a fresh planner, so its profile cache starts empty."""
        core = self.repro.core
        planner = core.Planner(configuration=core.ProcessingConfiguration(**COLD_CONFIG))
        tick = time.perf_counter()
        result = planner.plan(self.flows[key])
        return time.perf_counter() - tick, result

    def run(self, rng: random.Random, units: int, samples: Samples) -> float:
        """``units`` rounds over the pool, each in a seeded order.

        Returns the seconds spent planning.
        """
        busy = 0.0
        for _ in range(units):
            order = list(self.pool)
            rng.shuffle(order)
            for key in order:
                tick = time.perf_counter()
                try:
                    elapsed, result = self.plan(key)
                except Exception as exc:  # a failed plan is counted, not fatal
                    elapsed = time.perf_counter() - tick
                    problems = _describe(exc)
                else:
                    problems = self.repro.reference.mismatches(self.references[key], result)
                busy += elapsed
                samples.add(elapsed, problems)
        return busy

    def close(self) -> None:
        pass


class WarmReplan(ColdPlan):
    name = "warm_replan"
    unit_seconds = WARM_PLAN_S

    def setup(self, seed: int) -> None:
        key = random.Random(seed).choice(WARM_POOL)
        self.pool = (key,)
        flow = flow_catalog(self.repro.workloads)[key]()
        configuration = self.repro.core.ProcessingConfiguration(**WARM_CONFIG)
        session = self.repro.core.RedesignSession(flow, configuration=configuration)
        session.iterate()  # the untimed priming plan
        session.iterations.clear()
        self.sessions = {key: session}

    def caches(self) -> list:
        return [session.profile_cache for session in self.sessions.values()]

    def plan(self, key: str) -> Any:
        """One timed re-plan of a primed session: every profile is a cache hit."""
        session = self.sessions[key]
        tick = time.perf_counter()
        iteration = session.iterate()
        elapsed = time.perf_counter() - tick
        session.iterations.clear()  # hold one plan in memory, not every re-plan
        return elapsed, iteration.result


class ServiceJobs:
    name = "service_jobs"
    unit_seconds = SERVICE_ROUND_S

    def __init__(self, repro: Any, references: dict) -> None:
        self.repro = repro
        self.references = references
        self.shards: list = []
        self.cache = None
        self.server = None
        self.clients: list = []

    def setup(self, seed: int) -> None:
        from repro.cache import ProfileCache
        from repro.fleet import ShardedProfileCache
        from repro.service import CacheServer, RedesignClient, RedesignServer

        catalog = flow_catalog(self.repro.workloads)
        self.flows = {key: catalog[key]() for key in SERVICE_POOL}
        self.shards = [CacheServer(ProfileCache()).start() for _ in range(CACHE_SHARDS)]
        self.cache = ShardedProfileCache([shard.url for shard in self.shards])
        self.server = RedesignServer(cache=self.cache, workers=SERVICE_WORKERS).start()
        self.clients = [
            RedesignClient(self.server.url, poll_max=POLL_INTERVAL_S)
            for _ in range(SERVICE_CLIENTS)
        ]
        self._rounds = self._round_sequence(random.Random(seed))

    @staticmethod
    def _round_sequence(rng: random.Random):
        """Endless shuffled rounds of jobs; see :data:`SERVICE_ROUNDS`."""
        while True:
            for round_index in range(SERVICE_ROUNDS):
                jobs = 2 * service_jobs(round_index)
                rng.shuffle(jobs)
                yield jobs

    def caches(self) -> list:
        return [self.cache]

    def run(self, rng: random.Random, units: int, samples: Samples) -> float:
        """``units`` rounds of jobs, the clients taking turns; returns the wall time."""
        started = time.perf_counter()
        for _ in range(units):
            for index, job in enumerate(next(self._rounds)):
                samples.add(*self._job(self.clients[index % len(self.clients)], *job))
        return time.perf_counter() - started

    def _job(self, client: Any, key: str, seed: int) -> tuple[float, list[str]]:
        """One job, timed at the client from submit to a decoded result."""
        configuration = dict(SERVICE_CONFIG, seed=seed)
        tick = time.perf_counter()
        try:
            job_id = client.submit(self.flows[key], configuration)
            status = client.wait(job_id, timeout=JOB_TIMEOUT_S, poll=POLL_INTERVAL_S)
            if status["status"] != "done":
                return time.perf_counter() - tick, [f"job {job_id} {status['status']}"]
            result = client.result(job_id)
        except Exception as exc:
            return time.perf_counter() - tick, _describe(exc)
        elapsed = time.perf_counter() - tick
        client.delete(job_id)
        reference = self.references[f"{key}@{seed}"]
        return elapsed, self.repro.reference.mismatches(reference, result)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
        if self.cache is not None:
            self.cache.close()
        for shard in self.shards:
            shard.stop()


WORKLOADS = {workload.name: workload for workload in (ColdPlan, WarmReplan, ServiceJobs)}


class _Repro:
    """The program's modules, imported inside the timed set-up."""

    def __init__(self) -> None:
        import repro.core
        import repro.service
        import repro.workloads

        import reference

        self.core = repro.core
        self.workloads = repro.workloads
        self.reference = reference


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(args: argparse.Namespace) -> dict[str, Any]:
    tick = time.perf_counter()
    repro = _Repro()
    import_seconds = time.perf_counter() - tick
    references = repro.reference.load(args.workload)["plans"]

    workload_class = WORKLOADS[args.workload]
    setups = []
    workload = None
    for round_index in range(SETUP_ROUNDS):
        if workload is not None:
            workload.close()
        workload = workload_class(repro, references)
        tick = time.perf_counter()
        workload.setup(args.seed)
        setups.append(time.perf_counter() - tick)

    rng = random.Random(args.seed)
    samples = {False: Samples(), True: Samples()}  # keyed by "traced"
    busy = {False: 0.0, True: 0.0}
    # A traced run does its work in an untraced half, then a traced half;
    # the difference in plans_per_s is the tracing overhead.
    slices = (False, True) if args.trace else (False,)
    units = max(1, round(args.seconds / len(slices) / workload.unit_seconds))
    tracer = None
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        for traced in slices:
            if traced:
                tracer.install(caches=workload.caches(), server=workload.server)
            try:
                busy[traced] += workload.run(rng, units, samples[traced])
            finally:
                if traced:
                    tracer.uninstall()
    finally:
        workload.close()

    untraced, traced = samples[False], samples[True]
    attempted = len(untraced.latencies) + len(traced.latencies)
    failed = untraced.failed + traced.failed
    latencies = untraced.latencies
    untraced_busy = busy[False]
    if tracer is not None:
        untraced_rate = len(untraced.latencies) / untraced_busy
        traced_rate = len(traced.latencies) / busy[True]
        metrics = {
            name: (value, tracing.LAYER_UNITS[name])
            for name, value in tracer.layer_metrics(untraced_rate, traced_rate).items()
        }
    else:
        metrics = {
            "plan_p50_s": (statistics.median(latencies), "s"),
            "plan_p90_s": (_p90(latencies), "s"),
            "plans_per_s": (len(latencies) / untraced_busy, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (import_seconds + statistics.median(setups), "s"),
        }
    for problem in untraced.problems + traced.problems:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(
        f"{args.workload}: seed {args.seed}, {attempted} plans, {failed} failed "
        f"(failed_fraction {failed / max(attempted, 1):.4f}), "
        f"set-up rounds {', '.join(f'{s:.3f}' for s in setups)} s + import {import_seconds:.3f} s"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def record() -> None:
    """Plan every pool entry once and store its digest as the reference."""
    repro = _Repro()
    from repro.service.results import result_from_dict, result_to_dict

    catalog = flow_catalog(repro.workloads)
    Planner = repro.core.Planner
    ProcessingConfiguration = repro.core.ProcessingConfiguration
    cases = {
        "cold_plan": (COLD_CONFIG, [(key, key, None) for key in COLD_POOL]),
        "warm_replan": (WARM_CONFIG, [(key, key, None) for key in WARM_POOL]),
        "service_jobs": (
            SERVICE_CONFIG,
            [
                (f"{key}@{seed}", key, seed)
                for round_index in range(SERVICE_ROUNDS)
                for key, seed in service_jobs(round_index)
            ],
        ),
    }
    for workload, (config, entries) in cases.items():
        plans = {}
        for name, key, seed in entries:
            knobs = dict(config) if seed is None else dict(config, seed=seed)
            result = Planner(configuration=ProcessingConfiguration(**knobs)).plan(catalog[key]())
            if workload == "service_jobs":
                # What a client decodes: the result after a JSON round-trip.
                result = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
            plans[name] = repro.reference.plan_digest(result)
        path = repro.reference.save(workload, {"configuration": config, "plans": plans})
        print(f"{workload}: {len(plans)} reference plans -> {path}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="POIESIS planner benchmark (one workload)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record the reference plans")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
