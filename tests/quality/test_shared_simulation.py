"""Lifetime of the simulation memo a :class:`QualityEstimator` shares.

One plan's evaluation stream simulates every alternative against one
:class:`~repro.simulator.engine.SimulationMemo`.  The memo must end with
the stream and give the same profiles when threads share one
estimator.
"""

from __future__ import annotations

import sys
import threading

from repro.core.session import RedesignSession
from repro.quality.estimator import EstimationSettings, QualityEstimator
from repro.simulator.engine import ETLSimulator
from tests.conftest import fast_planner_config

_SETTINGS = EstimationSettings(simulation_runs=3, seed=11)


def _alternative_flows(flow, budget=2):
    configuration = fast_planner_config(pattern_budget=budget)
    planner = RedesignSession(flow, configuration=configuration).planner
    return [flow, *(alternative.flow for alternative in planner.stream_alternatives(flow))]


def _summary(profile):
    return profile.scores, {name: value.value for name, value in profile.values.items()}


class TestMemoLifetime:
    def test_memo_lives_for_one_plan_only(self, small_purchases):
        session = RedesignSession(small_purchases, configuration=fast_planner_config())
        estimator = session.planner.estimator
        seen = []
        session.iterate(on_evaluated=lambda _: seen.append(estimator._memo))
        assert seen and all(memo is seen[0] and memo is not None for memo in seen)
        assert estimator._memo is None
        session.iterate()
        assert estimator._memo is None

    def test_scopes_nest(self):
        estimator = QualityEstimator(settings=_SETTINGS)
        with estimator.shared_simulation():
            outer = estimator._memo
            with estimator.shared_simulation():
                assert estimator._memo is outer
            assert estimator._memo is outer
        assert estimator._memo is None

    def test_shared_memo_gives_the_private_memo_traces(self, small_purchases):
        flows = _alternative_flows(small_purchases)
        estimator = QualityEstimator(settings=_SETTINGS)
        with estimator.shared_simulation():
            shared = [estimator.simulate(flow) for flow in reversed(flows)]
        for flow, archive in zip(reversed(flows), shared):
            alone = ETLSimulator(flow, estimator._simulation).run()
            assert list(archive) == list(alone)
            assert repr(list(archive)) == repr(list(alone))

    def test_alternatives_share_states(self, small_purchases):
        flows = _alternative_flows(small_purchases)
        estimator = QualityEstimator(settings=_SETTINGS)
        with estimator.shared_simulation():
            for flow in flows:
                estimator.simulate(flow)
            interned = len(estimator._memo._states)
        visits = sum(len(flow) - len(flow.sources()) for flow in flows)
        assert interned < visits / 2


class TestThreads:
    def test_threads_sharing_one_estimator_match_serial_evaluation(self, small_purchases):
        flows = _alternative_flows(small_purchases)
        serial = [_summary(QualityEstimator(settings=_SETTINGS).evaluate(flow)) for flow in flows]
        runs = _SETTINGS.simulation_runs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            for _ in range(3):
                shared = QualityEstimator(settings=_SETTINGS)
                with shared.shared_simulation():
                    memo = shared._memo
                    for results in _in_threads(shared, flows, count=4):
                        assert results == serial
                # A lost update would leave a state or a basis with a run
                # drawn twice (or not at all).
                assert all(len(state.runs) == runs for state in memo._states.values())
                assert all(len(basis.draws) == runs for basis in memo._bases.values())
                assert shared._memo is None
        finally:
            sys.setswitchinterval(interval)


def _in_threads(estimator, flows, count):
    """Each thread evaluates every flow, in the same order, inside its own scope."""
    barrier = threading.Barrier(count)
    results: list[list] = [[] for _ in range(count)]
    errors: list[BaseException] = []

    def work(into):
        try:
            barrier.wait(timeout=30)
            with estimator.shared_simulation():
                into.extend(_summary(estimator.evaluate_uncached(flow)) for flow in flows)
        except Exception as exc:  # surfaced below, in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(into,)) for into in results]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    return results
