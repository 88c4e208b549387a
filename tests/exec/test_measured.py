"""Measured top-k calibration: spearman, planner/session hooks, knobs."""

from __future__ import annotations

import pytest

from repro.core.configuration import ProcessingConfiguration
from repro.core.planner import Planner
from repro.core.session import RedesignSession
from repro.exec import CalibrationReport, MeasuredRun, execute_top_k, spearman_correlation
from repro.workloads import calibration_configuration, tpch_refresh_flow


def _fast_planner() -> Planner:
    return Planner(
        configuration=calibration_configuration(
            pattern_budget=1, seed=11, simulation_runs=1, max_alternatives=30
        )
    )


# ----------------------------------------------------------------------
# Spearman
# ----------------------------------------------------------------------


def test_spearman_perfect_agreement():
    assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)


def test_spearman_perfect_disagreement():
    assert spearman_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_handles_ties_with_average_ranks():
    value = spearman_correlation([1.0, 1.0, 2.0], [5.0, 5.0, 9.0])
    assert value == pytest.approx(1.0)


def test_spearman_constant_side_is_zero():
    assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0


def test_spearman_validates_input():
    with pytest.raises(ValueError):
        spearman_correlation([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman_correlation([1], [1])


def test_spearman_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    ys = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0]
    expected = scipy_stats.spearmanr(xs, ys).statistic
    assert spearman_correlation(xs, ys) == pytest.approx(expected)


def test_calibration_report_rankings():
    report = CalibrationReport(backend="local", measure="m", data_seed=7, repeats=1)
    report.runs = [
        MeasuredRun(label="a", simulated=3.0, measured_ms=30.0),
        MeasuredRun(label="b", simulated=1.0, measured_ms=10.0),
        MeasuredRun(label="c", simulated=2.0, measured_ms=20.0),
    ]
    assert report.simulated_ranking == ["b", "c", "a"]
    assert report.measured_ranking == ["b", "c", "a"]
    assert report.spearman == pytest.approx(1.0)
    payload = report.to_dict()
    assert payload["pool"] == "skyline"
    assert payload["spearman"] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# execute_top_k
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def planned():
    return _fast_planner().plan(tpch_refresh_flow(scale=0.01))


def test_execute_top_k_validation(planned):
    with pytest.raises(ValueError, match="k >= 2"):
        execute_top_k(planned, k=1)
    with pytest.raises(ValueError, match="repeats"):
        execute_top_k(planned, repeats=0)
    with pytest.raises(ValueError, match="pool"):
        execute_top_k(planned, pool="best")


def test_execute_top_k_does_not_mutate_plans(planned):
    fingerprint = planned.fingerprint()
    report = execute_top_k(planned, k=3, repeats=1)
    assert planned.fingerprint() == fingerprint
    assert len(report.runs) == 3
    assert all(run.measured_ms > 0 for run in report.runs)
    # Simulated values arrive sorted ascending (the planner's ranking).
    simulated = [run.simulated for run in report.runs]
    assert simulated == sorted(simulated)


def test_execute_top_k_pools_differ(planned):
    skyline = execute_top_k(planned, k=3, repeats=1, pool="skyline")
    everything = execute_top_k(planned, k=3, repeats=1, pool="all")
    assert skyline.pool == "skyline"
    assert everything.pool == "all"
    # The all-pool draws the global simulated best; the skyline pool may
    # not contain it, but both must execute exactly k alternatives.
    assert len(skyline.runs) == len(everything.runs) == 3


# ----------------------------------------------------------------------
# Planner / session hooks
# ----------------------------------------------------------------------


def test_planner_execute_top_k_reuses_planning_result(planned):
    planner = _fast_planner()
    result, report = planner.execute_top_k(
        tpch_refresh_flow(scale=0.01), k=2, repeats=1, planning_result=planned
    )
    assert result is planned
    assert len(report.runs) == 2
    assert report.backend == "local"


def test_session_execute_top_k_records_iteration():
    session = RedesignSession(
        tpch_refresh_flow(scale=0.01), planner=_fast_planner()
    )
    report = session.execute_top_k(k=2, repeats=1)
    assert session.iteration_count == 1
    assert len(report.runs) == 2
    # A second call reuses the recorded planning result for the same flow.
    again = session.execute_top_k(k=2, repeats=1)
    assert session.iteration_count == 1
    assert [r.label for r in again.runs] == [r.label for r in report.runs]


# ----------------------------------------------------------------------
# Configuration knob
# ----------------------------------------------------------------------


def test_executor_backend_knob_validation(planned):
    # execution takes a backend instance, never a configuration name
    with pytest.raises(TypeError):
        ProcessingConfiguration(executor_backend="local")
    assert execute_top_k(planned, k=2, repeats=1).backend == "local"
